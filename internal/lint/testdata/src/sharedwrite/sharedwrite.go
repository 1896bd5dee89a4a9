// Package sharedwrite is a scooplint fixture: every way a Receive
// callback can write a payload relays forward as heard — core's
// QueryMsg (shared) and SummaryMsg (recycled), immutable once sent. A
// relay forwards the message it heard, so a write here changes what
// every other holder of the message sees. A summary's histogram bins
// and neighbour list are arrays inside the message, so a write through
// an array pointer to them, or an append into spare room of an alias,
// is one.
package sharedwrite

import (
	"scoop/internal/core"
	"scoop/internal/netsim"
	"scoop/internal/routing"
)

type relay struct {
	hops  uint8
	ids   []netsim.NodeID
	nb    []routing.NeighborInfo
	last  *core.SummaryMsg
	query *core.QueryMsg
}

func (r *relay) Receive(p *netsim.Packet) {
	switch m := p.Payload.(type) {
	case *core.SummaryMsg:
		m.Min = 0                                                 // want `assigning to m\.Min writes a payload reached from the Receive callback that relays forward as heard`
		m.Sum += 3                                                // want `assigning to m\.Sum writes a payload`
		m.LastIndexID++                                           // want `incrementing m\.LastIndexID writes a payload`
		m.Hist.Counts[0]--                                        // want `decrementing m\.Hist\.Counts\[0\] writes a payload`
		m.Neighbors[1].Quality = 1                                // want `assigning to m\.Neighbors\[1\]\.Quality writes a payload`
		*m = core.SummaryMsg{}                                    // want `assigning to \*m writes a payload`
		m.Neighbors = append(m.Neighbors, routing.NeighborInfo{}) // want `assigning to m\.Neighbors writes a payload` `appending to m\.Neighbors writes a payload`
		copy(m.Neighbors, r.nb)                                   // want `calling copy on m\.Neighbors writes a payload`
		nb := m.Neighbors                                         // an alias into the payload: tracked
		nb[0].ID = 3                                              // want `assigning to nb\[0\]\.ID writes a payload`
		clear(nb)                                                 // want `calling clear on nb writes a payload`
		bins := (*[10]uint16)(m.Hist.Counts)                      // the summary's inline bin array: tracked
		bins[9] = 0                                               // want `assigning to bins\[9\] writes a payload`
		spare := m.Neighbors[:0]                                  // an alias of the inline neighbour array: tracked
		r.nb = append(spare, r.nb...)                             // want `appending to spare writes a payload`
		min := &m.Min                                             // a pointer into the payload: tracked
		*min = 1                                                  // want `assigning to \*min writes a payload`
		r.bump(m)                                                 // followed into bump, which writes
		go func() { m.Max = 0 }()                                 // want `assigning to m\.Max writes a payload`
	case *core.QueryMsg:
		q := p.Payload.(*core.QueryMsg)
		q.Bitmap.Set(4)          // want `calling pointer method Set on q\.Bitmap writes a payload`
		q.ValueLo, r.hops = 0, 1 // want `assigning to q\.ValueLo writes a payload`
		r.widen(&m.Bitmap)       // followed into widen, which writes through the pointer
	}
}

func (r *relay) bump(m *core.SummaryMsg) {
	m.Rate *= 2 // want `assigning to m\.Rate writes a payload`
}

func (r *relay) widen(b *core.Bitmap) {
	b.Or(b) // want `calling pointer method Or on b writes a payload`
}
