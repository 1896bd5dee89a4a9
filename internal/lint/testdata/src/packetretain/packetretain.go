// Package packetretain is a scooplint fixture: every way a
// simulator-owned *netsim.Packet can escape a Receive/Snoop callback.
// Since the §12 pooling overhaul the packet lives in a pool and is
// recycled the moment the callback returns — a retained pointer reads
// someone else's packet later. A recycled payload reached from it goes
// back to its network's free list the same way, with its slices.
package packetretain

import (
	"scoop/internal/core"
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

// msg is a recycled payload: it embeds netsim.Refs, so after its last
// delivery it goes back to its network's free list and is zeroed there.
type msg struct {
	netsim.Refs
	Readings []int
	Owner    int
}

func (m *msg) Recycle() {}

// shared is an ordinary payload type: receivers may keep it.
type shared struct{ IDs []int }

type node struct {
	keep    *msg
	kept    []*msg
	rs      []int
	ch      chan []int
	copyOf  msg
	hop     *hop
	cb      func()
	mine    []int
	owner   int
	queries []*shared
	ids     []int
}

type hop struct{ m msg }

func (n *node) Receive(p *netsim.Packet) {
	switch m := p.Payload.(type) {
	case *msg:
		n.keep = m                    // want `storing in n\.keep retains a recycled payload:`
		n.kept = append(n.kept, m)    // want `appending to a slice retains a recycled payload:`
		n.cb = func() { _ = m.Owner } // want `capturing in a closure that may outlive the callback retains a recycled payload:`
		n.rs = m.Readings             // want `storing in n\.rs retains a recycled payload's slice`
		n.ch <- m.Readings[1:]        // want `sending on a channel retains a recycled payload's slice`
		n.copyOf = *m                 // want `storing in n\.copyOf retains a struct copy of a recycled payload`
		n.hop = &hop{m: *m}           // want `storing in a composite literal retains a struct copy`
		fwd := *m                     // a local copy: tracked, not yet a violation
		fwd.Owner++
		n.forward(&fwd) // want `taking the address of a copy retains a struct copy`
		rs := m.Readings
		n.rs = rs                // want `storing in n\.rs retains a recycled payload's slice`
		n.handle(m)              // followed into handle, which keeps a slice
		_ = n.pick(m)            // followed into pick, which returns the pointer
		n.inspect(m, m.Readings) // followed into inspect, which only reads

		// The allowed forms: read fields, copy the elements, copy a
		// message field by field.
		n.owner = m.Owner
		n.mine = append(n.mine[:0], m.Readings...)
		own := &msg{Owner: m.Owner, Readings: append([]int(nil), m.Readings...)}
		n.forward(own)
	case *shared:
		n.queries = append(n.queries, m) // a shared payload may be kept
		n.ids = m.IDs
	}
	if m, ok := p.Payload.(*msg); ok {
		n.keep = m // want `storing in n\.keep retains a recycled payload:`
	}
}

func (n *node) handle(m *msg) {
	n.rs = m.Readings[:1] // want `storing in n\.rs retains a recycled payload's slice`
}

func (n *node) pick(m *msg) *msg {
	return m // want `returning it retains a recycled payload:`
}

func (n *node) inspect(m *msg, rs []int) {
	n.owner = m.Owner + len(rs)
	for _, v := range rs {
		n.mine = append(n.mine, v)
	}
}

func (n *node) forward(m *msg) { n.owner = m.Owner }

// A summary is recycled, and a relay forwards it as heard: the
// basestation keeps a copy of its own, never the message nor a struct
// copy whose Hist.Counts and Neighbors still slice the message's
// arrays. Forwarding it in a new frame is not keeping it — Send holds
// a reference — but keeping that frame is.
type base struct {
	api     *netsim.NodeAPI
	latest  []*core.SummaryMsg
	copies  []core.SummaryMsg
	counts  []uint16
	frame   *netsim.Packet
	history []core.SummaryMsg
}

func (b *base) Receive(p *netsim.Packet) {
	if m, ok := p.Payload.(*core.SummaryMsg); ok {
		b.latest[m.Node] = m              // want `storing in b\.latest\[m\.Node\] retains a recycled payload, or a slice or pointer into one`
		b.copies = append(b.copies, *m)   // want `appending to a slice retains a struct copy of a recycled payload`
		b.counts = m.Hist.Counts          // want `storing in b\.counts retains a recycled payload, or a slice or pointer into one`
		fwd := &netsim.Packet{Payload: m} // a frame of the relay's own: tracked as the payload
		b.frame = fwd                     // want `storing in b\.frame retains a recycled payload, or a slice or pointer into one`
		b.api.Send(&netsim.Packet{Payload: m}, nil)
		b.history = append(b.history, core.SummaryMsg{Node: m.Node, Min: m.Min})
		b.counts = append(b.counts[:0], m.Hist.Counts...)
	}
}
