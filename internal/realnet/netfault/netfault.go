// Package netfault wraps net.Conn, net.Listener, and dial functions
// with deterministic, scripted fault injection: connection resets,
// write stalls, partial writes, and in-stream byte corruption, each
// fired at an exact byte offset of the connection's traffic.
//
// The point is to exercise every resilience path of the realnet
// transport (redial with backoff, write deadlines, requeue-on-failure,
// malformed-frame handling) without real network flakiness: a test that
// scripts "reset this connection after 32 KiB" fails the same way every
// run. Scripts are explicit event lists — no clocks, no randomness —
// so a failing run replays exactly.
package netfault

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"
)

// Action is one kind of injected fault.
type Action int

const (
	// Reset closes the connection at the scripted offset; the in-flight
	// Write (or Read) returns an error, like a TCP RST.
	Reset Action = iota
	// Stall sleeps for Event.Dur at the scripted offset before letting
	// the traffic proceed (exercises write deadlines and keepalives).
	Stall
	// PartialWrite delivers one byte past the scripted offset and then
	// fails the Write, leaving a torn frame on the wire.
	PartialWrite
	// CorruptRead flips the byte at the scripted offset of the inbound
	// stream (exercises malformed-frame scoring at the reader).
	CorruptRead
)

// Event is one scripted fault: Act fires once the connection has
// carried After bytes in the event's direction (writes for
// Reset/Stall/PartialWrite, reads for CorruptRead).
type Event struct {
	After int64
	Act   Action
	Dur   time.Duration // Stall only
}

// Script is an ordered fault sequence for one connection. Events fire
// in offset order per direction; a Reset ends the connection, so later
// events never fire.
type Script []Event

// ErrInjected is the error returned by faulted operations.
var ErrInjected = errors.New("netfault: injected fault")

// Conn wraps a net.Conn with a fault script. Safe for one concurrent
// reader plus one concurrent writer (the usual net.Conn contract).
type Conn struct {
	net.Conn

	mu     sync.Mutex
	wrote  int64
	readN  int64
	wQueue []Event // Reset/Stall/PartialWrite, offset order
	rQueue []Event // CorruptRead (and read-side Reset/Stall), offset order
}

// Wrap applies a script to a connection. Write-direction and
// read-direction events are split internally; each direction fires its
// events in order.
func Wrap(c net.Conn, s Script) *Conn {
	fc := &Conn{Conn: c}
	for _, ev := range s {
		if ev.Act == CorruptRead {
			fc.rQueue = append(fc.rQueue, ev)
		} else {
			fc.wQueue = append(fc.wQueue, ev)
		}
	}
	return fc
}

// nextW peeks the next write-side event, if any.
func (c *Conn) nextW() (Event, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.wQueue) == 0 {
		return Event{}, false
	}
	return c.wQueue[0], true
}

func (c *Conn) popW() {
	c.mu.Lock()
	c.wQueue = c.wQueue[1:]
	c.mu.Unlock()
}

func (c *Conn) addWrote(n int) {
	c.mu.Lock()
	c.wrote += int64(n)
	c.mu.Unlock()
}

// Write transmits p, firing any scripted write-side faults whose
// offsets fall inside it.
func (c *Conn) Write(p []byte) (int, error) {
	total := 0
	for {
		ev, ok := c.nextW()
		c.mu.Lock()
		boundary := int64(-1)
		if ok {
			boundary = ev.After - c.wrote
		}
		c.mu.Unlock()
		if !ok || boundary > int64(len(p)) {
			n, err := c.Conn.Write(p)
			c.addWrote(n)
			return total + n, err
		}
		if boundary > 0 {
			n, err := c.Conn.Write(p[:boundary])
			c.addWrote(n)
			total += n
			if err != nil {
				return total, err
			}
			p = p[boundary:]
		}
		c.popW()
		switch ev.Act {
		case Reset:
			c.Conn.Close()
			return total, ErrInjected
		case Stall:
			time.Sleep(ev.Dur)
		case PartialWrite:
			if len(p) > 0 {
				n, _ := c.Conn.Write(p[:1])
				c.addWrote(n)
				total += n
			}
			return total, ErrInjected
		}
	}
}

// Read receives into p, firing read-side faults whose offsets fall
// inside the received chunk.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		start := c.readN
		c.readN += int64(n)
		for len(c.rQueue) > 0 {
			ev := c.rQueue[0]
			off := ev.After - start
			if off < 0 {
				off = 0
			}
			if off >= int64(n) {
				break
			}
			c.rQueue = c.rQueue[1:]
			p[off] ^= 0xFF
		}
		c.mu.Unlock()
	}
	return n, err
}

// Listener wraps Accept so each accepted connection gets the script
// returned by gen for its ordinal (0, 1, 2, ...). A nil script leaves
// that connection clean.
type Listener struct {
	net.Listener
	gen func(i int) Script

	mu sync.Mutex
	i  int
}

// WrapListener builds a fault-injecting listener.
func WrapListener(ln net.Listener, gen func(i int) Script) *Listener {
	return &Listener{Listener: ln, gen: gen}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	i := l.i
	l.i++
	l.mu.Unlock()
	if s := l.gen(i); len(s) > 0 {
		return Wrap(c, s), nil
	}
	return c, nil
}

// WrapDial decorates a dial function so each established connection
// gets the script for its ordinal. A nil base uses net.Dialer.
func WrapDial(base func(ctx context.Context, addr string) (net.Conn, error), gen func(i int) Script) func(ctx context.Context, addr string) (net.Conn, error) {
	if base == nil {
		base = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	var mu sync.Mutex
	i := 0
	return func(ctx context.Context, addr string) (net.Conn, error) {
		c, err := base(ctx, addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		n := i
		i++
		mu.Unlock()
		if s := gen(n); len(s) > 0 {
			return Wrap(c, s), nil
		}
		return c, nil
	}
}
