// Package packetretain is a scooplint fixture: every way a
// simulator-owned *netsim.Packet can escape a Receive/Snoop callback.
// Since the §12 pooling overhaul the packet lives in a pool and is
// recycled the moment the callback returns — a retained pointer reads
// someone else's packet later.
package packetretain

import (
	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

type app struct {
	last     *netsim.Packet
	log      []*netsim.Packet
	ch       chan *netsim.Packet
	cb       func()
	pair     pair
	snapshot netsim.Packet
	kind     metrics.Class
}

type pair struct{ p *netsim.Packet }

func (a *app) Receive(p *netsim.Packet) {
	a.last = p               // want `storing in a\.last`
	a.log = append(a.log, p) // want `appending to a slice`
	a.ch <- p                // want `sending on a channel`
	a.pair = pair{p: p}      // want `storing in a composite literal`
	a.cb = func() {
		observe(p) // want `capturing in a closure`
	}

	q := p     // local alias: tracked, not yet a violation
	a.last = q // want `storing in a\.last`

	// The legal patterns: copy the struct, read the fields.
	a.snapshot = *p
	a.kind = p.Class
	observe(p)                    // passing down the stack stays inside the callback
	func() { a.kind = p.Class }() // immediately-invoked literal runs inside the callback
}

func (a *app) Snoop(p *netsim.Packet) {
	stash = p // want `assigning to stash`
}

var stash *netsim.Packet

// helper is not a Receive/Snoop callback: its packets are its
// caller's business, so nothing here is flagged.
func helper(p *netsim.Packet) *netsim.Packet {
	return p
}

// allowedKeep is a reviewed retention — e.g. code that provably
// copies before the next simulator step.
type keeper struct{ seen *netsim.Packet }

func (k *keeper) Receive(p *netsim.Packet) {
	k.seen = p //scoop:allow packetretain consumed synchronously before returning, reviewed
	k.consume()
}

func (k *keeper) consume() { k.seen = nil }

func observe(p *netsim.Packet) { _ = p.Size }

// The send side hands out simulator-owned pointers too: into a node's
// queue ring (OnPurge on reboot, ForEachQueued) and into an in-air
// delivery (OnPurge on kill, ForEachInFlight). Each is good for the
// call only.
type harness struct {
	lost   []*netsim.Packet
	sizes  []int
	queued map[netsim.NodeID]*netsim.Packet
}

func (h *harness) wire(net *netsim.Network) {
	net.OnPurge = func(id netsim.NodeID, p *netsim.Packet) {
		h.lost = append(h.lost, p)        // want `appending to a slice`
		h.sizes = append(h.sizes, p.Size) // reading a field is fine
	}

	net.ForEachQueued(func(id netsim.NodeID, p *netsim.Packet) {
		h.queued[id] = p // want `storing in h\.queued\[id\]`
		observe(p)
	})

	cp := new(netsim.Packet)
	net.ForEachInFlight(func(p *netsim.Packet) {
		*cp = *p  // copying the struct is the legal pattern
		stash = p // want `assigning to stash`
	})

	// Only literals are followed: a visitor installed by name is its
	// author's business, like helper above.
	net.ForEachInFlight(keepInFlight)
}

func keepInFlight(p *netsim.Packet) { stash = p }
