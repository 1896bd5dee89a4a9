package netsim

import (
	"slices"
	"unsafe"

	"scoop/internal/metrics"
)

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
// can forward a payload as heard.
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
//     included — the object is zeroed and goes back to its network's
//     free list of its type (Pool) after its last delivery. A type
//     that embeds Refs is reference counted and reused (see Recycled);
//     scooplint's packetretain flags a kept pointer or slice of one.
//   - Shared: immutable once sent, so any receiver may keep it. Query
//     messages are shared (Trickle relays the query it heard, and every
//     node keeps it), as are the entries of a mapping chunk.
//
// A relay may forward a recycled payload as heard, in a frame of its
// own: the send holds a reference (core's summaries travel so).
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

// freeListBlock is the first block a free list allocates when it runs
// dry. Each later block is as large as all before it together, so a
// list that ends up with m objects — the most its network ever had out
// at once, under twice that with the last block's spares — made them
// in about log₂(m/freeListBlock) allocations, whatever the network's
// size.
const freeListBlock = 64

// FreeList is a network's LIFO of recycled objects of one type: its own
// delivery, timer and MAC-step tasks, and, through Pool, each payload
// type its nodes send. It lives as long as its Network, nothing is
// package-level, and reuse never depends on the collector (DESIGN.md
// §12).
type FreeList[T any] struct {
	items []*T
	made  int // objects allocated, in blocks
}

// Get pops the most recently recycled object, first refilling an empty
// list with a block of zero ones.
func (l *FreeList[T]) Get() *T {
	k := len(l.items)
	if k == 0 {
		k = max(freeListBlock, l.made)
		l.made += k
		block := make([]T, k)
		l.items = slices.Grow(l.items, l.made) // room for every object made: Put never grows it
		for i := range block {
			l.items = append(l.items, &block[i])
		}
	}
	x := l.items[k-1]
	l.items[k-1] = nil
	l.items = l.items[:k-1]
	return x
}

// Put pushes x, already zeroed by its Recycle.
func (l *FreeList[T]) Put(x *T) { l.items = append(l.items, x) }

// Pool returns a's network's free list of payload type T, made on first
// use. Every node sending a T shares the list: a payload recycled after
// its last delivery goes back to it, whichever node sent it. Callers
// look it up once, at Init, and keep the pointer.
func Pool[T any](a *NodeAPI) *FreeList[T] { return Shared[FreeList[T]](a) }

// Shared returns a's network's one T, made zero on first use: what every
// node of the network shares, such as a free list (Pool) or the Blocks
// its arrays grow in. Callers look it up once and keep the pointer.
func Shared[T any](a *NodeAPI) *T {
	n := a.net
	for _, p := range n.shared {
		if x, ok := p.(*T); ok {
			return x
		}
	}
	x := new(T)
	n.shared = append(n.shared, x)
	return x
}

// Blocks is a network's store of arrays of T. An array a node takes on
// first use, or regrows (Grow), is carved from the newest block; a block
// that runs out is followed by one as large as all before it together —
// at least freeListBlock elements, at most blockBytes unless one array
// needs more — so arrays of T cost a few allocations a network, however
// many nodes hold one. An array its holder gives back (Put, as Grow does
// with the one it outgrew) is handed out again by the next Take of its
// capacity; nothing goes back to the runtime before the network does
// (DESIGN.md §12). An array of soloBytes or more is made on its own
// instead, unless Longest says to carve it. The zero value is empty.
type Blocks[T any] struct {
	// Longest, when above soloBytes' worth of T, is the longest array
	// carved: for arrays that nodes outgrow at different times, such as
	// a network's send rings (whole, up to QueueCap slots) and summary
	// dedup spills, so an outgrown one is soon taken again.
	Longest int

	free  []T              // the newest block's uncarved tail
	made  int              // elements allocated, in blocks
	spare []spareArrays[T] // arrays put back, one list per capacity
}

// spareArrays is a Blocks' list of put-back arrays of capacity n.
type spareArrays[T any] struct {
	n      int
	arrays [][]T
}

// blockBytes caps a block that doubling would make larger, so the tail a
// network never carves stays small: the runtime zeroes, and so makes
// resident, memory it reuses for a block.
const blockBytes = 16 << 10

// soloBytes is the size from which an array is made on its own, not
// carved, and left to the collector when put back: a network holds few
// such arrays, each regrown rarely, and what one outgrows would
// otherwise stay with the network unused.
const soloBytes = 1 << 10

// size is the bytes of one T, at least 1.
func (b *Blocks[T]) size() int {
	var zero T
	return max(1, int(unsafe.Sizeof(zero)))
}

// soloLen is the longest array of T b carves.
func (b *Blocks[T]) soloLen() int { return max((soloBytes-1)/b.size(), b.Longest) }

// Take returns an empty slice of capacity n: an array put back at that
// capacity, or one carved from the newest block, first starting a block
// when the tail is too short. Appending past n reallocates rather than
// running into a neighbour's array.
func (b *Blocks[T]) Take(n int) []T {
	if n > b.soloLen() {
		return make([]T, 0, n)
	}
	for i := range b.spare {
		if l := &b.spare[i]; l.n == n && len(l.arrays) > 0 {
			k := len(l.arrays) - 1
			s := l.arrays[k]
			l.arrays[k] = nil
			l.arrays = l.arrays[:k]
			return s
		}
	}
	if n > len(b.free) {
		k := max(freeListBlock, min(b.made, blockBytes/b.size()), n)
		b.made += k
		b.free = make([]T, k)
	}
	s := b.free[:0:n]
	b.free = b.free[n:]
	return s
}

// Put gives s's array back for a later Take of its capacity, zeroing it
// so it keeps nothing alive. The caller must not use the array again.
func (b *Blocks[T]) Put(s []T) {
	if cap(s) == 0 || cap(s) > b.soloLen() {
		return
	}
	clear(s[:cap(s)])
	for i := range b.spare {
		if l := &b.spare[i]; l.n == cap(s) {
			l.arrays = append(l.arrays, s[:0])
			return
		}
	}
	b.spare = append(b.spare, spareArrays[T]{n: cap(s), arrays: [][]T{s[:0]}})
}

// Grow returns s with room for one more element: s itself when it has
// it, else a copy of s in an array taken from b, of twice s's capacity,
// or of capacity first when s has none, s's own array put back. A
// doubling that would pass the longest array b carves stops there, so
// an array goes solo only once it has used all a carved one holds.
func Grow[T any](b *Blocks[T], s []T, first int) []T {
	if len(s) < cap(s) {
		return s
	}
	n := max(2*cap(s), first)
	if l := b.soloLen(); cap(s) < l && n > l {
		n = l
	}
	t := append(b.Take(n), s...)
	b.Put(s)
	return t
}
