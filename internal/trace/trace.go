// Package trace is the simulator's flight recorder: a deterministic,
// sim-time-only structured event layer threaded through the whole
// stack (netsim, core, index, dynamics). Emission sites hand typed
// Events to a per-run Recorder, which stamps the virtual clock, appends
// them to a block of compact records and hands each filled block to
// pluggable sinks, such as the deterministic JSONL writer.
//
// Determinism contract (DESIGN.md §16): every emission site runs on
// the simulation's single event-loop goroutine, event fields are
// integers only, and the JSONL encoding is hand-rolled with a fixed
// field order — so a fixed seed produces a byte-identical trace across
// runs and GOMAXPROCS settings. Timestamps are virtual milliseconds
// from the Recorder's injected clock; wall time never appears.
//
// Cost contract: a nil *Recorder is valid and means "tracing off".
// Emit on a nil Recorder returns immediately and Events are passed by
// value, so the disabled path does no allocation and no work beyond
// one branch — cheap enough to leave emission sites in the hot path
// unconditionally. On an enabled Recorder an emission is one append
// to the current block; the sinks run once per block.
package trace

import (
	"scoop/internal/metrics"
	"scoop/internal/prof"
)

// Kind discriminates trace event types.
type Kind uint8

// Event kinds. The zero value is reserved so an uninitialised Event is
// visibly invalid.
const (
	KindInvalid Kind = iota

	// MAC / radio layer (emitted by netsim.Network).
	PacketSend  // one transmission attempt put on the air
	PacketRecv  // link-layer delivery to the addressee
	PacketSnoop // frame overheard by a non-addressee
	PacketDrop  // frame lost (Cause: collision, queue, retries)
	PacketPurge // queued frame discarded by a node reboot
	NodeDown    // node killed (churn injection)
	NodeRestart // node rebooted with fresh protocol state

	// Reading lifecycle (emitted by core node/base).
	ReadingSampled   // sensor sample taken at the producer
	ReadingStored    // reading stored (Flag: local/owner/base site)
	ReadingLost      // reading loss-accounted (Cause: ttl, noroute, radio, reboot, killed)
	ReadingDelivered // reading carried back to the base by a query reply

	// Query engine (emitted by core base/node).
	QueryPlanned  // planner verdict for an aggregate query (Flag: plan)
	QueryIssued   // query launched into dissemination (Flag: plan)
	QueryAnswered // a targeted node (or the base itself) produced an answer

	// In-network aggregation (emitted by core nodes).
	AggCombined // a partial aggregate folded into the local combine buffer
	AggResent   // a partial-aggregate flush retransmitted upward

	// Index dissemination and reconstruction (core base + index.Builder).
	ChunkSent       // one mapping chunk broadcast (Trickle transmit)
	ReindexBegin    // basestation index recomputation started
	ReindexEnd      // recomputation finished (value-domain size in Size)
	IndexAdopted    // the freshly built index replaced the current one
	IndexSuppressed // the freshly built index was too similar; kept the old one

	// Environment perturbations (emitted by dynamics).
	Perturb // interference/drift epoch applied (Flag: dynamics kind)

	// Query reliability layer (emitted by core base).
	QueryRetry   // deadline expired: re-issue to the silent owners (Aux: attempt)
	QueryVerdict // query reached a terminal verdict (Flag: verdict)

	numKinds
)

// kindNames maps kinds to their wire names (stable: part of the JSONL
// format).
var kindNames = [numKinds]string{
	KindInvalid:      "invalid",
	PacketSend:       "packet-send",
	PacketRecv:       "packet-recv",
	PacketSnoop:      "packet-snoop",
	PacketDrop:       "packet-drop",
	PacketPurge:      "packet-purge",
	NodeDown:         "node-down",
	NodeRestart:      "node-restart",
	ReadingSampled:   "reading-sampled",
	ReadingStored:    "reading-stored",
	ReadingLost:      "reading-lost",
	ReadingDelivered: "reading-delivered",
	QueryPlanned:     "query-planned",
	QueryIssued:      "query-issued",
	QueryAnswered:    "query-answered",
	AggCombined:      "agg-combined",
	AggResent:        "agg-resent",
	ChunkSent:        "chunk-sent",
	ReindexBegin:     "reindex-begin",
	ReindexEnd:       "reindex-end",
	IndexAdopted:     "index-adopted",
	IndexSuppressed:  "index-suppressed",
	Perturb:          "perturb",
	QueryRetry:       "query-retry",
	QueryVerdict:     "query-verdict",
}

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < numKinds {
		return kindNames[k]
	}
	return "invalid"
}

// ParseKind maps a wire name back to its Kind, reporting whether the
// name was recognised.
func ParseKind(s string) (Kind, bool) {
	for k := Kind(1); k < numKinds; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return KindInvalid, false
}

// Kinds lists every valid kind in declaration order.
func Kinds() []Kind {
	ks := make([]Kind, 0, int(numKinds)-1)
	for k := Kind(1); k < numKinds; k++ {
		ks = append(ks, k)
	}
	return ks
}

// Storage sites for ReadingStored's Flag field.
const (
	StoreLocal uint8 = iota // stored by its producer
	StoreOwner              // stored at the index-designated owner
	StoreBase               // fell back to the basestation
)

// Event is one structured trace record. All fields are integers so the
// JSONL encoding is exactly reproducible; which fields are meaningful
// depends on Kind (the schema table in DESIGN.md §16). The struct is
// always passed by value — emission sites build it on the stack and
// sinks copy what they keep.
type Event struct {
	T    int64 // virtual time, ms (stamped by the Recorder)
	Kind Kind

	Node uint16 // node where the event happened (base = 0)
	Peer uint16 // counterpart node (link peer, partial's sender, ...)

	Class metrics.Class     // packet events: message class
	Cause metrics.DropCause // drop/loss events: why
	Flag  uint8             // small discriminator (store site, plan, dynamics kind)

	Size int32  // packet events: frame bytes; ReindexEnd: value-domain size
	ID   uint16 // query ID or storage-index generation

	Producer uint16 // reading identity: producing node ...
	SampleT  int64  // ... and sample time (virtual ms)

	Value int64 // primary quantity (reading value, match count, chunk num)
	Aux   int64 // secondary quantity (attempt number, target count)
}

// Field presence masks: which Event fields each kind emits, driving
// both the JSONL encoder (fields outside the mask are omitted) and the
// CarriesReading/CarriesClass predicates scoopflight filters by.
const (
	fPeer = 1 << iota
	fClass
	fCause
	fFlag
	fSize
	fID
	fReading // Producer + SampleT
	fValue
	fAux
)

var kindFields = [numKinds]uint16{
	PacketSend:       fPeer | fClass | fSize,
	PacketRecv:       fPeer | fClass | fSize,
	PacketSnoop:      fPeer | fClass | fSize,
	PacketDrop:       fPeer | fClass | fCause | fSize,
	PacketPurge:      fClass | fCause | fSize,
	NodeDown:         0,
	NodeRestart:      0,
	ReadingSampled:   fReading | fValue,
	ReadingStored:    fFlag | fReading | fValue,
	ReadingLost:      fCause | fReading | fValue,
	ReadingDelivered: fID | fReading | fValue,
	QueryPlanned:     fFlag | fID | fValue | fAux,
	QueryIssued:      fFlag | fID | fValue,
	QueryAnswered:    fID | fValue,
	AggCombined:      fPeer | fID | fValue,
	AggResent:        fID | fAux,
	ChunkSent:        fID | fValue,
	ReindexBegin:     fValue,
	ReindexEnd:       fSize,
	IndexAdopted:     fID | fValue,
	IndexSuppressed:  fID,
	Perturb:          fFlag | fValue,
	QueryRetry:       fID | fValue | fAux,
	QueryVerdict:     fFlag | fID | fValue | fAux,
}

// Fields returns the presence mask for k (0 for invalid kinds).
func (k Kind) fields() uint16 {
	if k < numKinds {
		return kindFields[k]
	}
	return 0
}

// CarriesReading reports whether events of this kind identify a
// reading (Producer, SampleT) — the reading-lifecycle subset Follow
// and scoopflight's -reading filter operate on.
func (k Kind) CarriesReading() bool { return k.fields()&fReading != 0 }

// CarriesClass reports whether events of this kind carry a message
// class — the packet subset scoopflight's -class filter operates on.
func (k Kind) CarriesClass() bool { return k.fields()&fClass != 0 }

// Sink consumes recorded events a block at a time. Record is called
// from the simulation goroutine only, once per filled block and once
// more at Close for the last partial one, so a sink sees nothing of a
// block until the block is handed over. The block is valid only during
// the call: a sink keeps what it needs by copying. Close flushes and
// releases resources.
type Sink interface {
	Record(b *Block)
	Close() error
}

// ReadingID identifies one reading by its (producer, sample time)
// pair, as scoopflight's -reading filter selects it. A negative Time
// matches every reading the producer samples.
type ReadingID struct {
	Producer uint16
	Time     int64
}

// Recorder stamps events with the virtual clock, appends them to its
// block and hands the block to its sinks whenever it fills. One
// Recorder belongs to one simulation run (single goroutine; not safe
// for concurrent use). The nil Recorder is the disabled state: Emit
// returns immediately.
type Recorder struct {
	now   func() int64
	sinks []Sink
	prof  *prof.Profiler
	blk   Block  // the events not yet handed to the sinks
	skip  uint64 // bit k set: drop events of kind k (Only)
}

// New builds a Recorder over the given virtual clock (milliseconds)
// and sinks.
func New(now func() int64, sinks ...Sink) *Recorder {
	return &Recorder{now: now, sinks: sinks}
}

// SetProfiler attributes the wall time of each block hand-over (the
// sinks' Record calls) to the trace-emit phase when a run is profiled;
// the appends between hand-overs stay with the phase that emits them.
// Safe on a nil Recorder; a nil profiler detaches.
func (r *Recorder) SetProfiler(p *prof.Profiler) {
	if r != nil {
		r.prof = p
	}
}

// Only keeps the Recorder to events of the given kinds: an emission of
// any other kind returns at once, as on a nil Recorder, and never
// reaches a block or a sink.
func (r *Recorder) Only(kinds ...Kind) {
	r.skip = ^uint64(0)
	for _, k := range kinds {
		r.skip &^= 1 << k
	}
}

// Emit stamps e with the current virtual time and appends it to the
// block. Safe (and free) on a nil Recorder.
func (r *Recorder) Emit(e Event) {
	if r == nil || r.skip&(1<<e.Kind) != 0 {
		return
	}
	e.T = r.now()
	r.blk.add(&e)
	if r.blk.full() {
		r.flush()
	}
}

// Packet is Emit for an event of kind k with only the packet fields
// node, peer, class and size — PacketSend, PacketRecv and PacketSnoop,
// the radio's per-frame events — appended without building an Event.
func (r *Recorder) Packet(k Kind, node, peer uint16, class metrics.Class, size int) {
	if r == nil || r.skip&(1<<k) != 0 {
		return
	}
	if k.fields()&fWide != 0 {
		r.Emit(Event{Kind: k, Node: node, Peer: peer, Class: class, Size: int32(size)})
		return
	}
	b := &r.blk
	rec := &b.recs[b.n]
	rec.t, rec.kind, rec.class, rec.cause, rec.flag = r.now(), k, class, 0, 0
	rec.node, rec.peer, rec.id, rec.producer, rec.size = node, peer, 0, 0, int32(size)
	b.n++
	if b.n == BlockSize {
		r.flush()
	}
}

// flush hands the block to every sink and empties it.
func (r *Recorder) flush() {
	if r.blk.n == 0 {
		return
	}
	prev := r.prof.Enter(prof.PhaseTraceEmit)
	for _, s := range r.sinks {
		s.Record(&r.blk)
	}
	r.blk.n, r.blk.nw = 0, 0
	r.prof.Exit(prev)
}

// Close hands the last partial block to the sinks and closes them,
// returning the first error.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.flush()
	var first error
	for _, s := range r.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
