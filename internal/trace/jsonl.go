package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"scoop/internal/metrics"
)

// AppendJSON appends e as one JSON object (no trailing newline) to b
// and returns the extended slice. The encoding is hand-rolled and
// fully deterministic: fixed field order, integer values only, and
// per-kind field presence (fields outside the kind's mask are
// omitted), so identical event streams produce byte-identical output.
func AppendJSON(b []byte, e Event) []byte {
	b = append(b, `{"t":`...)
	b = strconv.AppendInt(b, e.T, 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	f := e.Kind.fields()
	if f&fPeer != 0 {
		b = append(b, `,"peer":`...)
		b = strconv.AppendInt(b, int64(e.Peer), 10)
	}
	if f&fClass != 0 {
		b = append(b, `,"class":"`...)
		b = append(b, e.Class.String()...)
		b = append(b, '"')
	}
	if f&fCause != 0 {
		b = append(b, `,"cause":"`...)
		b = append(b, e.Cause.String()...)
		b = append(b, '"')
	}
	if f&fFlag != 0 {
		b = append(b, `,"flag":`...)
		b = strconv.AppendInt(b, int64(e.Flag), 10)
	}
	if f&fSize != 0 {
		b = append(b, `,"size":`...)
		b = strconv.AppendInt(b, int64(e.Size), 10)
	}
	if f&fID != 0 {
		b = append(b, `,"id":`...)
		b = strconv.AppendInt(b, int64(e.ID), 10)
	}
	if f&fReading != 0 {
		b = append(b, `,"producer":`...)
		b = strconv.AppendInt(b, int64(e.Producer), 10)
		b = append(b, `,"samplet":`...)
		b = strconv.AppendInt(b, e.SampleT, 10)
	}
	if f&fValue != 0 {
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, e.Value, 10)
	}
	if f&fAux != 0 {
		b = append(b, `,"aux":`...)
		b = strconv.AppendInt(b, e.Aux, 10)
	}
	return append(b, '}')
}

// The JSONL sink hands events to its encoder in blocks of jsonlBlock,
// out of a pool of jsonlPool blocks: one filling on the event loop,
// the others queued for or being encoded, so the loop waits only when
// the encoder is a whole pool behind.
const (
	jsonlBlock = 512
	jsonlPool  = 3
)

// JSONL is a sink writing one JSON object per line. Record only copies
// the event into a block; a full block goes to one encoder goroutine,
// which formats and writes blocks strictly in the order they were
// handed over, so the bytes are those of encoding every event inline.
// The goroutine starts when the first block fills; a trace shorter
// than a block is encoded by Close. Writes are buffered; Close flushes
// and returns the first write error (later records are dropped).
type JSONL struct {
	blk []Event // the block Record is filling

	full chan []Event // filled blocks, event loop → encoder; nil until started
	free chan []Event // emptied blocks, encoder → event loop
	done chan error   // the encoder's result, sent once it has drained full

	closed bool
	err    error

	// Touched only by the encoder, or by Close when it never started.
	w    *bufio.Writer
	line []byte
}

// NewJSONL returns a JSONL sink over w. The writer belongs to the sink
// until Close returns: the encoder goroutine writes to it, so nothing
// else may touch it before then. The caller retains ownership of any
// underlying file: Close flushes but does not close it.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{
		blk:  make([]Event, 0, jsonlBlock),
		w:    bufio.NewWriter(w),
		line: make([]byte, 0, 160),
	}
}

// Record implements Sink.
func (s *JSONL) Record(e Event) {
	s.blk = append(s.blk, e)
	if len(s.blk) == jsonlBlock {
		s.handoff()
	}
}

// handoff sends the filled block to the encoder, starting it on the
// first call, and takes an emptied block back.
func (s *JSONL) handoff() {
	if s.full == nil {
		// Both channels hold every block of the pool, so neither side
		// ever blocks on a send.
		s.full = make(chan []Event, jsonlPool)
		s.free = make(chan []Event, jsonlPool)
		s.done = make(chan error, 1)
		for i := 1; i < jsonlPool; i++ {
			s.free <- make([]Event, 0, jsonlBlock)
		}
		//scoop:allow goroutine JSONL encoder: touches only the blocks it receives and the sink's writer, and a channel receive orders every handoff
		go s.encode()
	}
	s.full <- s.blk
	s.blk = <-s.free
}

// encode runs on the encoder goroutine until Close closes full. After
// a write error it keeps returning blocks without encoding them, so
// Record never waits on a failed writer.
func (s *JSONL) encode() {
	var err error
	for blk := range s.full {
		if err == nil {
			err = s.write(blk)
		}
		s.free <- blk[:0]
	}
	if err == nil {
		err = s.w.Flush()
	}
	s.done <- err
}

// write encodes blk one line at a time into the buffered writer.
func (s *JSONL) write(blk []Event) error {
	for _, e := range blk {
		s.line = AppendJSON(s.line[:0], e)
		s.line = append(s.line, '\n')
		if _, err := s.w.Write(s.line); err != nil {
			return err
		}
	}
	return nil
}

// Close implements Sink: hand over the last partial block, wait for
// the encoder to write and flush everything, and report the first
// error seen. The encoder goroutine has finished when Close returns;
// a second Close returns the same error.
func (s *JSONL) Close() error {
	if s.closed {
		return s.err
	}
	s.closed = true
	if s.full == nil {
		if s.err = s.write(s.blk); s.err == nil {
			s.err = s.w.Flush()
		}
	} else {
		s.full <- s.blk
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
