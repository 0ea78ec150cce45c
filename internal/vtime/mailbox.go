package vtime

import "time"

// Mailbox is an unbounded FIFO message queue between simulation
// participants. Sends never block; receives block the calling process
// until a message arrives or a deadline passes.
//
// A Mailbox may be sent to from process goroutines and event closures
// (e.g. the network layer delivering a message via Sim.After). It is not
// safe for use outside the simulation.
type Mailbox struct {
	sim   *Sim
	queue []any
	// waiter is the process currently parked on this mailbox, if any.
	// The paper's per-(round,step) incomingMsgs buffers map to one
	// Mailbox each, and a process only ever waits on one mailbox at a
	// time, so a single waiter suffices.
	waiter         *Proc
	waiterTimedOut *bool // cancellation flag for the waiter's deadline event
}

// NewMailbox creates a mailbox bound to s.
func (s *Sim) NewMailbox() *Mailbox {
	return &Mailbox{sim: s}
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return len(m.queue) }

// Send enqueues v and wakes the waiting process, if any.
func (m *Mailbox) Send(v any) {
	m.queue = append(m.queue, v)
	if m.waiter != nil {
		p := m.waiter
		// Cancel the waiter's pending deadline event and wake it now.
		if m.waiterTimedOut != nil {
			*m.waiterTimedOut = true
		}
		m.waiter = nil
		m.waiterTimedOut = nil
		m.sim.wakeAt(m.sim.now, p, nil)
	}
}

// Recv blocks until a message is available and returns it.
func (p *Proc) Recv(m *Mailbox) any {
	v, ok := p.RecvDeadline(m, -1)
	if !ok {
		panic("vtime: Recv returned without value")
	}
	return v
}

// RecvDeadline blocks until a message is available or the absolute
// virtual deadline passes. A negative deadline means wait forever.
// It returns (message, true) or (nil, false) on timeout.
func (p *Proc) RecvDeadline(m *Mailbox, deadline time.Duration) (any, bool) {
	if len(m.queue) > 0 {
		v := m.queue[0]
		m.queue = m.queue[1:]
		return v, true
	}
	if deadline >= 0 && deadline <= p.sim.now {
		return nil, false
	}
	if m.waiter != nil {
		panic("vtime: multiple processes waiting on one mailbox")
	}
	m.waiter = p
	if deadline >= 0 {
		cancelled := false
		m.waiterTimedOut = &cancelled
		p.sim.wakeAt(deadline, p, &cancelled)
	}
	p.park()
	if m.waiter == p {
		// Woken by the deadline event: deregister.
		m.waiter = nil
		m.waiterTimedOut = nil
		return nil, false
	}
	// Woken by Send: a message is guaranteed queued.
	v := m.queue[0]
	m.queue = m.queue[1:]
	return v, true
}

// RecvTimeout is RecvDeadline with a relative timeout.
func (p *Proc) RecvTimeout(m *Mailbox, timeout time.Duration) (any, bool) {
	return p.RecvDeadline(m, p.sim.now+timeout)
}
