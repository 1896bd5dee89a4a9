package netsim

import "scoop/internal/metrics"

// NodeID identifies a node. The basestation is always node 0, matching
// the paper's single-basestation deployments.
type NodeID uint16

// Broadcast is the link-layer broadcast address.
const Broadcast NodeID = 0xFFFF

// NoNode marks an unset NodeID field (e.g. "no parent yet").
const NoNode NodeID = 0xFFFE

// MaxNodes is the largest supported network size. The paper's
// implementation bounds networks to 128 nodes via the fixed 128-bit
// query bitmap (paper §5.5); the scale tier (DESIGN.md §12) replaces
// that field with a variable-length bitmap sized to the network — its
// on-air size keeps the paper's 16-byte floor, so runs at or below
// 128 nodes are bit-for-bit unchanged — and raises the simulator
// bound to 1024 so GHT/TAG-regime experiments (hundreds to a
// thousand nodes) are runnable.
const MaxNodes = 1024

// Packet is a link-layer frame. Protocol layers attach their content
// as Payload; Size approximates the on-air byte count so the MAC can
// model airtime and collisions.
//
// Every outgoing packet carries Scoop's custom header fields: Origin
// (the node that created the packet) and OriginParent (that node's
// routing-tree parent), which the basestation uses to learn the tree
// (paper §5.2), plus a per-sender monotonically increasing sequence
// number that neighbours use to estimate link quality by counting gaps
// (paper §5.2, "snooping"). Hops is the forwarding TTL against
// transient routing loops (paper §5.1): the transmissions the frame's
// content made before this one, 0 from its origin; a relay sends the
// received Hops + 1. It lives in the header, not the payload, so a relay
// can forward a shared payload as heard.
//
// Ownership: the *Packet passed to App.Receive and App.Snoop is owned
// by the simulator and recycled through a pool once the delivery
// callback returns. Applications must not retain or mutate it; copy
// the header fields they need. Send/Broadcast copy the frame, so the
// caller's *Packet is free again at once; what OnPurge and
// ForEachQueued/InFlight hand out lasts one call.
//
// A payload is one of two classes (DESIGN.md §12):
//
//   - Recycled (the default): borrowed for the length of the call, like
//     the *Packet. A receiver copies whatever it keeps, slice fields
//     included — the object goes back to its sender's free list after
//     its last delivery and is zeroed there. A type that embeds Refs is
//     reference counted and reused (see Recycled); scooplint's
//     packetretain flags a kept pointer or slice of one.
//   - Shared: immutable once sent, so any receiver may keep it. Query
//     and summary messages are shared (Trickle relays the query it
//     heard, the basestation keeps every summary), as are the entries
//     of a mapping chunk.
type Packet struct {
	Class metrics.Class // message class for accounting
	Hops  uint8         // forwarding TTL (in Class's padding: the frame stays 40 bytes)
	Src   NodeID        // link-layer sender of this transmission
	Dst   NodeID        // link-layer destination, or Broadcast

	Origin       NodeID // node that created the packet
	OriginParent NodeID // Origin's routing-tree parent at creation time
	Seq          uint32 // Src's link-layer sequence number (set by the MAC)

	Size    int // approximate bytes on air, including headers
	Payload any
}

// Refs is the reference count a recycled payload embeds. Its sender
// holds one reference from creation until it is done with the payload
// (Hold, then Release); netsim holds one per send-queue slot, until the
// slot is popped or drained, and one per delivery task, until its last
// receiver returns. The last Release recycles the payload.
type Refs struct{ n int32 }

func (r *Refs) refs() *Refs { return r }

// Recycled is a payload type that embeds Refs: the last Release calls
// its Recycle, which zeroes it and pushes it onto the free list it was
// taken from.
type Recycled interface {
	refs() *Refs
	Recycle()
}

// Hold takes a reference on p.
func Hold(p Recycled) { p.refs().n++ }

// Release drops a reference on p, recycling p when it was the last.
func Release(p Recycled) {
	r := p.refs()
	r.n--
	switch {
	case r.n < 0:
		panic("netsim: payload released more often than held")
	case r.n == 0:
		p.Recycle()
	}
}

// freeListCap bounds every free list: a node keeps at most this many
// spare payloads of one type, however many a burst had in flight.
const freeListCap = 8

// FreeList is a sender's LIFO of recycled payloads of one type.
type FreeList[T any] struct{ items []*T }

// Get pops the most recently recycled payload, or allocates a zero one.
func (l *FreeList[T]) Get() *T {
	k := len(l.items)
	if k == 0 {
		return new(T)
	}
	x := l.items[k-1]
	l.items[k-1] = nil
	l.items = l.items[:k-1]
	return x
}

// Put pushes x, already zeroed by its Recycle, unless the list is full.
func (l *FreeList[T]) Put(x *T) {
	if l.items == nil {
		l.items = make([]*T, 0, freeListCap)
	}
	if len(l.items) < freeListCap {
		l.items = append(l.items, x)
	}
}
