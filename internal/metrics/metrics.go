// Package metrics provides message accounting for sensor-network
// simulations. The Scoop paper's cost metric is the total number of
// messages nodes collectively send, broken down by message class
// (data, summary, mapping, query, reply, beacon), so every transmission
// in the simulator is recorded here.
//
// Counters are plain in-memory tallies owned by a single simulation run;
// they are not safe for concurrent use. Experiment harnesses that run
// trials in parallel give each trial its own Counters and merge afterwards.
package metrics

import (
	"fmt"

	"scoop/internal/dense"
)

// Class identifies the protocol role of a message, mirroring the
// breakdown in Figure 3 of the paper.
type Class uint8

// Message classes. Beacon traffic (tree maintenance) exists in all
// storage policies and is reported separately, as the paper's counts
// exclude routing-tree heartbeats from the per-policy comparison.
const (
	Data Class = iota
	Summary
	Mapping
	Query
	Reply
	AggReply // combined partial-aggregate replies (in-network aggregation)
	Beacon
	numClasses
)

// String returns the lower-case class name used in reports.
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Summary:
		return "summary"
	case Mapping:
		return "mapping"
	case Query:
		return "query"
	case Reply:
		return "reply"
	case AggReply:
		return "aggreply"
	case Beacon:
		return "beacon"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseClass maps a class name (as produced by Class.String) back to
// the Class, reporting whether the name was recognised.
func ParseClass(s string) (Class, bool) {
	for c := Class(0); c < numClasses; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// DropCause identifies why a packet or reading was lost. A closed enum
// (rather than the free strings it replaced) means a typo'd cause can
// no longer silently split a counter, and trace events share the same
// values.
type DropCause uint8

// Drop causes. The packet-level causes (collision, queue, retries and
// the scripted link faults) label the MAC's packet-drop trace events;
// the reading-level causes (ttl, noroute, radio, reboot, killed) label
// the reading-lost trace events that account end-to-end data loss,
// which the invariant checker reads.
const (
	DropCollision DropCause = iota // frame destroyed by an overlapping transmission
	DropQueue                      // send queue full (saturation)
	DropRetries                    // unicast gave up after MaxAttempts
	DropTTL                        // data message exceeded the hop limit
	DropNoRoute                    // no parent/owner route available
	DropRadio                      // link-layer send failed (ack never seen)
	DropReboot                     // state lost to a node reboot
	DropBlackout                   // link inside a scripted regional blackout
	DropPartition                  // link across a scripted partition cut
	DropBurst                      // correlated burst-loss window degraded the link
	DropKilled                     // acked frame stranded in the air by its receiver's death
	numDropCauses
)

// NumDropCauses is the number of drop causes, for per-cause tables.
const NumDropCauses = int(numDropCauses)

// String returns the lower-case cause name used in reports and traces.
func (c DropCause) String() string {
	switch c {
	case DropCollision:
		return "collision"
	case DropQueue:
		return "queue"
	case DropRetries:
		return "retries"
	case DropTTL:
		return "ttl"
	case DropNoRoute:
		return "noroute"
	case DropRadio:
		return "radio"
	case DropReboot:
		return "reboot"
	case DropBlackout:
		return "blackout"
	case DropPartition:
		return "partition"
	case DropBurst:
		return "burst"
	case DropKilled:
		return "killed"
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// ParseDropCause maps a cause name (as produced by DropCause.String)
// back to the DropCause, reporting whether the name was recognised.
func ParseDropCause(s string) (DropCause, bool) {
	for c := DropCause(0); c < numDropCauses; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return 0, false
}

// Counters accumulates the message accounting of one simulation run:
// per-class transmissions (the paper's cost metric), the root's load,
// and the byte tallies the energy model reads. Per-node byte tallies
// live in flat slices keyed by dense node ID (grown on demand), so the
// per-transmission and per-delivery counting paths do no hashing and
// no steady-state allocation — at 1000 nodes these are among the
// hottest calls in the simulator.
type Counters struct {
	sent [numClasses]int64 // transmissions, including retries

	// The root's (node 0, the basestation's) non-beacon transmissions
	// and deliveries: the load at the root that the paper compares
	// across storage policies.
	rootSent, rootRecv int64

	// Byte tallies feed the energy model (radio cost is per bit).
	// Snooped bytes are frames overheard by non-addressees — they cost
	// the same reception energy, and in dense networks dominate it.
	// Per-class sent bytes feed the query engine's bytes-per-answer
	// accounting (tuple return vs in-network aggregation).
	sentBytes    int64
	sentBytesC   [numClasses]int64
	recvBytes    int64
	snoopBytes   int64
	sentBytesBy  []int64
	recvBytesBy  []int64
	snoopBytesBy []int64
}

// NewCounters returns empty counters ready for use. Per-node tables
// grow to the highest node ID observed.
func NewCounters() *Counters {
	return &Counters{}
}

// CountSend records one transmission of class c and the given frame
// size by node id.
func (m *Counters) CountSend(id uint16, c Class, bytes int) {
	m.sent[c]++
	if id == 0 && c != Beacon {
		m.rootSent++
	}
	i := int(id)
	// Grow only when out of range: storing the slice header back on
	// every call would go through the GC write barrier each time.
	if i >= len(m.sentBytesBy) {
		m.sentBytesBy = dense.Grow(m.sentBytesBy, i)
	}
	m.sentBytesBy[i] += int64(bytes)
	m.sentBytes += int64(bytes)
	m.sentBytesC[c] += int64(bytes)
}

// CountReceive records one successful delivery of class c and frame
// size to node id.
func (m *Counters) CountReceive(id uint16, c Class, bytes int) {
	if id == 0 && c != Beacon {
		m.rootRecv++
	}
	i := int(id)
	m.recvBytes += int64(bytes)
	if i >= len(m.recvBytesBy) {
		m.recvBytesBy = dense.Grow(m.recvBytesBy, i)
	}
	m.recvBytesBy[i] += int64(bytes)
}

// CountSnoop records bytes a non-addressee overheard.
func (m *Counters) CountSnoop(id uint16, bytes int) {
	m.snoopBytes += int64(bytes)
	if int(id) >= len(m.snoopBytesBy) {
		m.snoopBytesBy = dense.Grow(m.snoopBytesBy, int(id))
	}
	m.snoopBytesBy[id] += int64(bytes)
}

// SnoopedBytes returns the total bytes overheard by non-addressees.
func (m *Counters) SnoopedBytes() int64 { return m.snoopBytes }

// SnoopedBytesBy returns the bytes node id overheard.
func (m *Counters) SnoopedBytesBy(id uint16) int64 { return at(m.snoopBytesBy, int(id)) }

// at reads s[i], treating out-of-range as zero (a node that never
// triggered growth has no tallies).
func at(s []int64, i int) int64 {
	if i < len(s) {
		return s[i]
	}
	return 0
}

// SentBytes returns the total bytes transmitted (all nodes).
func (m *Counters) SentBytes() int64 { return m.sentBytes }

// SentBytesClass returns the bytes transmitted carrying class c.
func (m *Counters) SentBytesClass(c Class) int64 { return m.sentBytesC[c] }

// ReceivedBytes returns the total bytes delivered to addressees.
func (m *Counters) ReceivedBytes() int64 { return m.recvBytes }

// SentBytesBy returns the bytes node id transmitted.
func (m *Counters) SentBytesBy(id uint16) int64 { return at(m.sentBytesBy, int(id)) }

// ReceivedBytesBy returns the bytes delivered to node id.
func (m *Counters) ReceivedBytesBy(id uint16) int64 { return at(m.recvBytesBy, int(id)) }

// RootSent returns the root's non-beacon transmissions, retries
// included.
func (m *Counters) RootSent() int64 { return m.rootSent }

// RootReceived returns the non-beacon deliveries to the root.
func (m *Counters) RootReceived() int64 { return m.rootRecv }

// Breakdown is a fixed snapshot of per-class transmission counts, the
// unit the figures in the paper plot.
type Breakdown struct {
	Data     float64
	Summary  float64
	Mapping  float64
	Query    float64
	Reply    float64
	AggReply float64
	Beacon   float64
}

// Snapshot extracts a Breakdown from the counters.
func (m *Counters) Snapshot() Breakdown {
	return Breakdown{
		Data:     float64(m.sent[Data]),
		Summary:  float64(m.sent[Summary]),
		Mapping:  float64(m.sent[Mapping]),
		Query:    float64(m.sent[Query]),
		Reply:    float64(m.sent[Reply]),
		AggReply: float64(m.sent[AggReply]),
		Beacon:   float64(m.sent[Beacon]),
	}
}

// Total returns the comparison-metric total (beacons excluded).
func (b Breakdown) Total() float64 {
	return b.Data + b.Summary + b.Mapping + b.Query + b.Reply + b.AggReply
}

// Add returns the element-wise sum of two breakdowns.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		Data:     b.Data + o.Data,
		Summary:  b.Summary + o.Summary,
		Mapping:  b.Mapping + o.Mapping,
		Query:    b.Query + o.Query,
		Reply:    b.Reply + o.Reply,
		AggReply: b.AggReply + o.AggReply,
		Beacon:   b.Beacon + o.Beacon,
	}
}

// Scale returns the breakdown multiplied by f (e.g. 1/trials).
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{
		Data:     b.Data * f,
		Summary:  b.Summary * f,
		Mapping:  b.Mapping * f,
		Query:    b.Query * f,
		Reply:    b.Reply * f,
		AggReply: b.AggReply * f,
		Beacon:   b.Beacon * f,
	}
}
