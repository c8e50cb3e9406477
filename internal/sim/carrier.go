//go:build go1.23

// The build line lets this file import iter while go.mod stays at go
// 1.22 (benchmark/go.mod pins 1.22 and replaces this module; raising
// the line here breaks its build). There is no channel-based twin for
// older toolchains: the package needs Go >= 1.23.

package sim

import (
	"iter"
	"sync" //detlint:ok the idle list is shared by engines running concurrently (bench.Workers, -race tests)
)

// carrier is a runtime coroutine that hosts process bodies one after
// another, so a process switch is coroswitches only — a resume onto the
// chain of drivers or yields back down it (Engine.dispatch), at most two
// amortised — with no channel, no wakep, no Go scheduler.
// Processes ride carriers instead of owning a coroutine each because
// iter.Pull costs about ten heap objects. Idle carriers wait in a
// package-level list that outlives engines: a program that runs many
// simulations makes coroutines only up to the most processes it ever
// had live at once.
type carrier struct {
	p     *Proc // the process being hosted, or to host on the next resume
	next  func() (struct{}, bool)
	pause func(struct{}) bool
}

var idleCarriers struct {
	sync.Mutex
	list []*carrier
}

// takeCarrier returns an idle carrier, or a new one.
func takeCarrier() *carrier {
	idleCarriers.Lock()
	if n := len(idleCarriers.list); n > 0 {
		c := idleCarriers.list[n-1]
		idleCarriers.list = idleCarriers.list[:n-1]
		idleCarriers.Unlock()
		return c
	}
	idleCarriers.Unlock()
	c := &carrier{}
	c.next, _ = iter.Pull(c.host) // never stopped: carriers are pooled, not torn down
	return c
}

// host is the coroutine's body. It ends only when a process's run says
// the stack is not to be reused (a panic went through it).
func (c *carrier) host(pause func(struct{}) bool) {
	c.pause = pause
	for c.p.run() {
		pause(struct{}{})
	}
}

// resume switches into the coroutine until it yields and reports
// whether it is still alive. A panic that ended it comes out of here,
// on the caller's goroutine or coroutine, with its original value.
func (c *carrier) resume() bool {
	_, alive := c.next()
	return alive
}

// yield switches from the hosted process back to whoever resumed it.
func (c *carrier) yield() { c.pause(struct{}{}) }

// release puts the carrier on the idle list. Only whoever called resume
// may call it, after resume has returned with the hosted process done:
// the coroutine is then at rest in host's pause and holds nothing of the
// engine.
func (c *carrier) release() {
	c.p = nil
	idleCarriers.Lock()
	idleCarriers.list = append(idleCarriers.list, c)
	idleCarriers.Unlock()
}
