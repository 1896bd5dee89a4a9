// Package sharedread is a scooplint fixture that must stay silent: a
// Receive callback may read a payload relays forward as heard (core's
// QueryMsg and SummaryMsg), forward it in a frame of its own and pass
// it down the stack, and keep a shared one (QueryMsg); it may change a
// copy, never the message. A summary is recycled, so what is kept of
// it is copied. A pointer method declared outside this package cannot
// be followed, so it is called on a copy.
package sharedread

import (
	"scoop/internal/core"
	"scoop/internal/netsim"
	"scoop/internal/routing"
)

type node struct {
	api     *netsim.NodeAPI
	history []*core.SummaryMsg
	queries []*core.QueryMsg
	nb      []routing.NeighborInfo
	sum     int
	hops    uint8
	marked  bool
	scratch core.Bitmap
}

func (n *node) Receive(p *netsim.Packet) {
	switch m := p.Payload.(type) {
	case *core.SummaryMsg:
		n.history = append(n.history, &core.SummaryMsg{Node: m.Node, Sum: m.Sum}) // copied fields
		n.sum += m.Sum
		n.hops = p.Hops + 1
		n.nb = append(n.nb[:0], m.Neighbors...)
		for _, nb := range m.Neighbors {
			nb.Quality = 0 // a copy of the element
			n.sum += int(nb.ID)
		}
		fwd := *m // a copy of the message may change
		fwd.Min, fwd.Max = 0, 0
		n.sum += fwd.Min
		n.forward(p, m)
		m = nil // rebinding the local is not a write
	case *core.QueryMsg:
		n.queries = append(n.queries, m) // kept: a shared payload may be
		bm := m.Bitmap                   // a copy of the field
		n.marked = bm.Has(n.api.ID()) || n.inRange(&m.ValueLo, &m.ValueHi)
		n.scratch.Or(&m.Bitmap) // writes the receiver, reads the payload
		go func() { n.sum += m.ValueHi }()
	}
}

func (n *node) inRange(lo, hi *int) bool { return *lo <= n.sum && n.sum <= *hi }

func (n *node) forward(p *netsim.Packet, payload any) {
	n.api.Send(&netsim.Packet{Class: p.Class, Hops: p.Hops + 1, Payload: payload}, nil)
}
