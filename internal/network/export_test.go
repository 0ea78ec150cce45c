package network

// ResetSeen clears all duplicate-suppression state at once — the forced
// version of what SeenTTL rotation does gradually.
func (nw *Network) ResetSeen() { nw.rotate(); nw.rotate() }
