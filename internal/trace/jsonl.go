package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"scoop/internal/metrics"
)

// AppendJSON appends e as one JSON object (no trailing newline) to b
// and returns the extended slice. The encoding is hand-rolled and
// fully deterministic: fixed field order, integer values only, and
// per-kind field presence (fields outside the kind's mask are
// omitted), so identical event streams produce byte-identical output.
// It is the JSONL sink's renderer applied to one event.
func AppendJSON(b []byte, e Event) []byte {
	var r record
	r.set(&e)
	b = appendInt(append(b, `{"t":`...), e.T)
	b = appendUint(append(b, kindHeads[r.kind]...), uint64(r.node))
	return appendRest(b, r.kind.fields(), &r, &wide{sampleT: e.SampleT, value: e.Value, aux: e.Aux})
}

// Rendering tables: the fixed text that opens a kind's fields and the
// quoted class and cause fields, each for every value a byte can hold,
// and the integer formatter's digit pairs and powers of ten.
var (
	kindHeads   [256]string // `,"kind":"<name>","node":`
	classFields [256]string // `,"class":"<name>"`
	causeFields [256]string // `,"cause":"<name>"`
	digitPairs  [200]byte   // "00" "01" … "99"
	pow10       [20]uint64  // 10^i, up to the largest a uint64 holds
)

func init() {
	for k := range kindHeads {
		kindHeads[k] = `,"kind":"` + Kind(k).String() + `","node":`
	}
	for i := range classFields {
		classFields[i] = `,"class":"` + metrics.Class(i).String() + `"`
		causeFields[i] = `,"cause":"` + metrics.DropCause(i).String() + `"`
	}
	for i := 0; i < 100; i++ {
		digitPairs[2*i], digitPairs[2*i+1] = '0'+byte(i/10), '0'+byte(i%10)
	}
	pow10[0] = 1
	for i := 1; i < len(pow10); i++ {
		pow10[i] = pow10[i-1] * 10
	}
}

// maxLine bounds one rendered line, newline included: every field at
// its longest (TestMaxLineBound).
const maxLine = 320

// fFrame is the fields a frame's per-receiver events share: an event
// whose kind carries no others renders the same text after its node
// for every receiver of one frame.
const fFrame = fPeer | fClass | fCause | fSize

// appendRest renders one compact event after its node — the fields in
// its kind's mask f, then the closing brace — given its record and,
// when its kind carries 64-bit quantities, its wide entry x.
func appendRest(b []byte, f uint16, r *record, x *wide) []byte {
	if f&fPeer != 0 {
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(r.peer))
	}
	if f&fClass != 0 {
		b = append(b, classFields[r.class]...)
	}
	if f&fCause != 0 {
		b = append(b, causeFields[r.cause]...)
	}
	if f&fFlag != 0 {
		b = append(b, `,"flag":`...)
		b = appendUint(b, uint64(r.flag))
	}
	if f&fSize != 0 {
		b = append(b, `,"size":`...)
		b = appendInt(b, int64(r.size))
	}
	if f&fID != 0 {
		b = append(b, `,"id":`...)
		b = appendUint(b, uint64(r.id))
	}
	if f&fReading != 0 {
		b = append(b, `,"producer":`...)
		b = appendUint(b, uint64(r.producer))
		b = append(b, `,"samplet":`...)
		b = appendInt(b, x.sampleT)
	}
	if f&fValue != 0 {
		b = append(b, `,"value":`...)
		b = appendInt(b, x.value)
	}
	if f&fAux != 0 {
		b = append(b, `,"aux":`...)
		b = appendInt(b, x.aux)
	}
	return append(b, '}')
}

// appendInt appends v in decimal, as strconv.AppendInt(b, v, 10) does.
func appendInt(b []byte, v int64) []byte {
	if v < 0 {
		// -v wraps for math.MinInt64, and uint64 of the wrapped value is
		// still its magnitude.
		return appendUint(append(b, '-'), uint64(-v))
	}
	return appendUint(b, uint64(v))
}

// appendUint appends u in decimal, two digits per division, written in
// place at the end of b.
func appendUint(b []byte, u uint64) []byte {
	if u < 10 {
		return append(b, '0'+byte(u))
	}
	if u < 100 {
		return append(b, digitPairs[2*u], digitPairs[2*u+1])
	}
	if u < 1000 { // node ids and frame sizes
		j := (u % 100) * 2
		return append(b, '0'+byte(u/100), digitPairs[j], digitPairs[j+1])
	}
	// The digit count: bits.Len64(u)*1233>>12 is ⌊log10⌋ of u's leading
	// power of two, one short of u's when u is at least the next power
	// of ten.
	n := bits.Len64(u) * 1233 >> 12
	if u >= pow10[n] {
		n++
	}
	l := len(b)
	b = slices.Grow(b, n)[:l+n]
	d := b[l:]
	i := n
	for u >= 100 {
		q := u / 100
		j := (u - q*100) * 2
		i -= 2
		d[i+1], d[i] = digitPairs[j+1], digitPairs[j]
		u = q
	}
	if u >= 10 {
		d[1], d[0] = digitPairs[2*u+1], digitPairs[2*u]
	} else {
		d[0] = '0' + byte(u)
	}
	return b
}

// jsonlPool is how many blocks the JSONL sink owns. Record copies each
// hand-over into a free one, so the event loop waits only when the
// encoder is a whole pool behind.
const jsonlPool = 3

// JSONL is a sink writing one JSON object per line. Record copies the
// handed-over block into a block of the sink's own pool and passes it
// to one encoder goroutine, which renders blocks strictly in the order
// they were handed over, so the bytes are those of encoding every
// event inline. The goroutine starts with the first block. Writes are
// buffered; Close flushes and returns the first write error (later
// blocks are dropped).
type JSONL struct {
	pool [jsonlPool]Block

	full chan *Block // filled blocks, event loop → encoder; nil until started
	free chan *Block // rendered blocks, encoder → event loop
	done chan error  // the encoder's result, sent once it has drained full

	closed bool
	err    error

	w *bufio.Writer // touched only by the encoder, or by Close when it never started
}

// NewJSONL returns a JSONL sink over w. The writer belongs to the sink
// until Close returns: the encoder goroutine writes to it, so nothing
// else may touch it before then. The caller retains ownership of any
// underlying file: Close flushes but does not close it.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// Record implements Sink: b is copied into a free block of the pool,
// which goes to the encoder.
func (s *JSONL) Record(b *Block) {
	if s.full == nil {
		// Both channels hold every block of the pool, so neither side
		// ever blocks on a send.
		s.full = make(chan *Block, jsonlPool)
		s.free = make(chan *Block, jsonlPool)
		s.done = make(chan error, 1)
		for i := range s.pool {
			s.free <- &s.pool[i]
		}
		//scoop:allow goroutine JSONL encoder: touches only the blocks it receives and the sink's writer, and a channel receive orders every handoff
		go s.encode()
	}
	c := <-s.free
	c.copyFrom(b)
	s.full <- c
}

// encode runs on the encoder goroutine until Close closes full. After
// a write error it keeps returning blocks without rendering them, so
// Record never waits on a failed writer.
func (s *JSONL) encode() {
	var err error
	for blk := range s.full {
		if err == nil {
			err = s.write(blk)
		}
		s.free <- blk
	}
	if err == nil {
		err = s.w.Flush()
	}
	s.done <- err
}

// frameKey is what the text after the node depends on for the kinds
// whose fields are all in fFrame.
type frameKey struct {
	f     uint16
	peer  uint16
	class metrics.Class
	cause metrics.DropCause
	size  int32
}

// write renders blk line by line straight into the buffered writer's
// free space, flushing it whenever a longest line might not fit. A
// frame's events share their timestamp, and its deliveries everything
// after the node, so each of those two parts is rendered again only
// when it changes.
func (s *JSONL) write(blk *Block) error {
	buf := s.w.AvailableBuffer()
	var hb [32]byte
	head, ht := hb[:0], int64(0)
	var tb [80]byte // the longest tail: every fFrame field at its longest
	tail, tk := tb[:0], frameKey{}
	w := 0
	for i := range blk.recs[:blk.n] {
		if cap(buf)-len(buf) < maxLine {
			if _, err := s.w.Write(buf); err != nil {
				return err
			}
			if err := s.w.Flush(); err != nil {
				return err
			}
			buf = s.w.AvailableBuffer()
		}
		r := &blk.recs[i]
		x := blk.wideOf(r, &w)
		if len(head) == 0 || r.t != ht {
			head, ht = appendInt(append(hb[:0], `{"t":`...), r.t), r.t
		}
		buf = appendUint(append(append(buf, head...), kindHeads[r.kind]...), uint64(r.node))
		f := r.kind.fields()
		if f&^fFrame != 0 {
			buf = append(appendRest(buf, f, r, x), '\n')
			continue
		}
		if k := (frameKey{f, r.peer, r.class, r.cause, r.size}); len(tail) == 0 || k != tk {
			tail, tk = append(appendRest(tb[:0], f, r, nil), '\n'), k
		}
		buf = append(buf, tail...)
	}
	_, err := s.w.Write(buf)
	return err
}

// Close implements Sink: wait for the encoder to render and flush
// every block handed over, and report the first error seen. The
// encoder goroutine has finished when Close returns; a second Close
// returns the same error.
func (s *JSONL) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.full == nil {
		s.err = s.w.Flush()
	} else {
		close(s.full)
		s.err = <-s.done
	}
	return s.err
}

// jsonEvent is the decode shape for one JSONL line: enum fields travel
// as their wire names.
type jsonEvent struct {
	T        int64  `json:"t"`
	Kind     string `json:"kind"`
	Node     uint16 `json:"node"`
	Peer     uint16 `json:"peer"`
	Class    string `json:"class"`
	Cause    string `json:"cause"`
	Flag     uint8  `json:"flag"`
	Size     int32  `json:"size"`
	ID       uint16 `json:"id"`
	Producer uint16 `json:"producer"`
	SampleT  int64  `json:"samplet"`
	Value    int64  `json:"value"`
	Aux      int64  `json:"aux"`
}

// ParseLine decodes one JSONL line back into an Event.
func ParseLine(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, err
	}
	k, ok := ParseKind(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown kind %q", je.Kind)
	}
	e := Event{
		T: je.T, Kind: k, Node: je.Node, Peer: je.Peer,
		Flag: je.Flag, Size: je.Size, ID: je.ID,
		Producer: je.Producer, SampleT: je.SampleT,
		Value: je.Value, Aux: je.Aux,
	}
	if je.Class != "" {
		c, ok := metrics.ParseClass(je.Class)
		if !ok {
			return Event{}, fmt.Errorf("trace: unknown class %q", je.Class)
		}
		e.Class = c
	}
	if je.Cause != "" {
		c, ok := metrics.ParseDropCause(je.Cause)
		if !ok {
			return Event{}, fmt.Errorf("trace: unknown cause %q", je.Cause)
		}
		e.Cause = c
	}
	return e, nil
}

// ReadJSONL decodes a whole JSONL stream (blank lines skipped).
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		e, err := ParseLine(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
