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
	sim *Sim
	// queue[head:] are the messages waiting; earlier slots are cleared.
	queue []any
	head  int
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
func (m *Mailbox) Len() int { return len(m.queue) - m.head }

// Send enqueues v and wakes the waiting process, if any.
func (m *Mailbox) Send(v any) {
	if n := len(m.queue); n == cap(m.queue) && m.head > n/2 {
		// Full, and mostly of slots already handed over: a mailbox that is
		// never quite drained moves up instead of growing without bound.
		n = copy(m.queue, m.queue[m.head:])
		clear(m.queue[n:])
		m.queue, m.head = m.queue[:n], 0
	}
	m.queue = append(m.queue, v)
	if m.waiter != nil {
		p := m.waiter
		// Cancel the waiter's pending deadline event and wake it now.
		if m.waiterTimedOut != nil {
			m.sim.cancel(m.waiterTimedOut)
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
	if m.Len() > 0 {
		return m.pop(), true
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
	return m.pop(), true
}

// pop takes the oldest message off the queue and clears its slot, so the
// mailbox does not keep what it has handed over alive; a drained queue
// starts again at the front of its array instead of sliding off the end.
func (m *Mailbox) pop() any {
	v := m.queue[m.head]
	m.queue[m.head] = nil
	if m.head++; m.head == len(m.queue) {
		m.queue, m.head = m.queue[:0], 0
	}
	return v
}

// RecvTimeout is RecvDeadline with a relative timeout.
func (p *Proc) RecvTimeout(m *Mailbox, timeout time.Duration) (any, bool) {
	return p.RecvDeadline(m, p.sim.now+timeout)
}
