package netfault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// tcpPair returns two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	c, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestResetAtOffset(t *testing.T) {
	c, s := tcpPair(t)
	fc := Wrap(c, Script{{After: 10, Act: Reset}})
	n, err := fc.Write(make([]byte, 20))
	if err != ErrInjected {
		t.Fatalf("write error %v, want ErrInjected", err)
	}
	if n != 10 {
		t.Fatalf("wrote %d bytes before reset, want exactly 10", n)
	}
	// The remote sees the bytes, then EOF/reset.
	buf := make([]byte, 32)
	got := 0
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	for {
		n, err := s.Read(buf[got:])
		got += n
		if err != nil {
			break
		}
	}
	if got != 10 {
		t.Fatalf("remote received %d bytes, want 10", got)
	}
}

func TestPartialWriteTearsFrame(t *testing.T) {
	c, s := tcpPair(t)
	fc := Wrap(c, Script{{After: 5, Act: PartialWrite}})
	n, err := fc.Write(make([]byte, 20))
	if err != ErrInjected {
		t.Fatalf("write error %v, want ErrInjected", err)
	}
	// One byte past the offset is delivered: a torn, not truncated-at-
	// boundary, stream.
	if n != 6 {
		t.Fatalf("wrote %d bytes, want 6 (offset 5 + 1 torn byte)", n)
	}
	fc.Close()
	got, _ := io.ReadAll(s)
	if len(got) != 6 {
		t.Fatalf("remote received %d bytes, want 6", len(got))
	}
}

func TestStallDelaysWrite(t *testing.T) {
	c, s := tcpPair(t)
	fc := Wrap(c, Script{{After: 4, Act: Stall, Dur: 120 * time.Millisecond}})
	go io.Copy(io.Discard, s)
	start := time.Now()
	if _, err := fc.Write(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("write completed in %v, stall did not fire", d)
	}
}

func TestCorruptReadFlipsByte(t *testing.T) {
	c, s := tcpPair(t)
	fc := Wrap(c, Script{{After: 3, Act: CorruptRead}})
	want := []byte{0, 1, 2, 3, 4, 5}
	if _, err := s.Write(want); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	fc.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(fc, buf); err != nil {
		t.Fatal(err)
	}
	exp := append([]byte(nil), want...)
	exp[3] ^= 0xFF
	if !bytes.Equal(buf, exp) {
		t.Fatalf("read %v, want byte 3 flipped: %v", buf, exp)
	}
}

// TestPeriodicScript: a script of resets every 100 bytes ends the
// connection at the first of them. The later events never fire, so one
// reset is the whole of such a period: the remote receives 100 bytes and
// every write after the reset fails.
func TestPeriodicScript(t *testing.T) {
	c, s := tcpPair(t)
	fc := Wrap(c, Script{{After: 100, Act: Reset}, {After: 200, Act: Reset}, {After: 300, Act: Reset}})
	if n, err := fc.Write(make([]byte, 250)); n != 100 || err != ErrInjected {
		t.Fatalf("first write: %d bytes, %v; want 100 and ErrInjected", n, err)
	}
	if n, err := fc.Write(make([]byte, 250)); n != 0 || err == nil {
		t.Fatalf("write after the reset: %d bytes, %v; want 0 and an error", n, err)
	}
	s.SetReadDeadline(time.Now().Add(2 * time.Second))
	if got, _ := io.ReadAll(s); len(got) != 100 {
		t.Fatalf("remote received %d bytes, want 100", len(got))
	}
}
