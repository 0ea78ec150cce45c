package gateway

// Resume undoes Halt (a restarted gateway keeps its read model; a
// truly cold restart would rebuild it from a fresh New).
func (g *Gateway) Resume() { g.halted = false }
