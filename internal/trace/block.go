package trace

import "scoop/internal/metrics"

// BlockSize is how many events a Block holds, and blockWide how many
// of them may carry 64-bit quantities. A Recorder hands its sinks its
// block each time the block fills, and the last, partial one at Close;
// both bounds are fixed, so a run's hand-over points are too.
const (
	BlockSize = 512
	blockWide = BlockSize / 4
)

// fWide marks the kinds that carry a 64-bit quantity besides the
// timestamp. Only their records take a wide entry.
const fWide = fReading | fValue | fAux

// record is one event in compact form: every field but the three
// 64-bit quantities, inline in 24 bytes.
type record struct {
	t        int64
	kind     Kind
	class    metrics.Class
	cause    metrics.DropCause
	flag     uint8
	node     uint16
	peer     uint16
	id       uint16
	producer uint16
	size     int32
}

// set makes r the record of e. It stores field by field: a composite
// literal would be built on the stack and copied, a store-forwarding
// stall per event on the emission path.
func (r *record) set(e *Event) {
	r.t, r.kind, r.class, r.cause, r.flag = e.T, e.Kind, e.Class, e.Cause, e.Flag
	r.node, r.peer, r.id, r.producer, r.size = e.Node, e.Peer, e.ID, e.Producer, e.Size
}

// event expands r, given its wide entry x (nil when its kind carries
// none), into an Event.
func (r *record) event(x *wide) Event {
	e := Event{T: r.t, Kind: r.kind, Node: r.node, Peer: r.peer, Class: r.class,
		Cause: r.cause, Flag: r.flag, Size: r.size, ID: r.id, Producer: r.producer}
	if x != nil {
		e.SampleT, e.Value, e.Aux = x.sampleT, x.value, x.aux
	}
	return e
}

// wide holds the 64-bit quantities of one event whose kind carries any
// of them (fWide).
type wide struct {
	sampleT, value, aux int64
}

// Block is a run of recorded events in emission order, the unit a
// Recorder hands its sinks. Events are held compactly: one record each,
// plus one wide entry, in the same order, for each event whose kind
// carries a sample time, value or aux (DESIGN.md §16's schema); an
// event of any other kind reads those three back as zero. A Sink reads
// a block through Each.
type Block struct {
	n, nw int // records held, and wide entries among them
	recs  [BlockSize]record
	wide  [blockWide]wide
}

// add appends e; the block must not be full.
func (b *Block) add(e *Event) {
	b.recs[b.n].set(e)
	b.n++
	if e.Kind.fields()&fWide != 0 {
		b.wide[b.nw] = wide{sampleT: e.SampleT, value: e.Value, aux: e.Aux}
		b.nw++
	}
}

// full reports whether the next event might not fit.
func (b *Block) full() bool { return b.n == BlockSize || b.nw == blockWide }

// copyFrom makes b a copy of src.
func (b *Block) copyFrom(src *Block) {
	b.n, b.nw = src.n, src.nw
	copy(b.recs[:b.n], src.recs[:b.n])
	copy(b.wide[:b.nw], src.wide[:b.nw])
}

// Each calls fn with every event of the block, in emission order.
func (b *Block) Each(fn func(e Event)) {
	w := 0
	for i := range b.recs[:b.n] {
		r := &b.recs[i]
		fn(r.event(b.wideOf(r, &w)))
	}
}

// wideOf returns the wide entry of r, the block's record after w
// others with wide entries, and advances w past it; nil when r's kind
// carries none.
func (b *Block) wideOf(r *record, w *int) *wide {
	if r.kind.fields()&fWide == 0 {
		return nil
	}
	x := &b.wide[*w]
	*w++
	return x
}
