// Package trickle implements the Trickle gossip protocol (Levis et
// al., NSDI'04) that Scoop uses to disseminate storage-index chunks
// and, in a modified selective form, query packets (paper §5.3, §5.5).
//
// Each item under dissemination has its own Trickle timer: during an
// interval of length tau the node picks a random instant in the second
// half of the interval and broadcasts the item there unless it has
// already heard the same item at least K times this interval
// (suppression). At the end of each interval tau doubles, up to
// TauHigh; hearing an inconsistency resets tau to TauLow so new data
// spreads fast.
//
// The package is transport-agnostic: the owner supplies a Send
// callback that actually broadcasts the item (and may itself decline,
// as Scoop's bitmap-filtered query re-broadcast does).
package trickle

import (
	"cmp"
	"slices"

	"scoop/internal/netsim"
)

// Key identifies one item under dissemination. Owners encode their own
// structure (e.g. index-id<<16 | chunk-no).
type Key uint64

// Config tunes Trickle. The zero value is unusable; use DefaultConfig.
type Config struct {
	TauLow  netsim.Time // initial/reset interval
	TauHigh netsim.Time // interval cap
	K       int         // redundancy constant (suppression threshold)
	// MaxRounds, when >0, retires an item after that many intervals.
	// Scoop retires query gossip quickly but keeps mapping chunks
	// gossiping slowly until superseded.
	MaxRounds int
}

// DefaultConfig returns the Trickle parameters used in the
// experiments: fast initial spread, one-minute steady state.
func DefaultConfig() Config {
	return Config{
		TauLow:    500 * netsim.Millisecond,
		TauHigh:   60 * netsim.Second,
		K:         1,
		MaxRounds: 0,
	}
}

type itemState struct {
	tau     netsim.Time
	heard   int // consistent transmissions heard this interval
	fireAt  netsim.Time
	endAt   netsim.Time
	fired   bool // sent (or suppressed) this interval already
	rounds  int
	retired bool
}

// liveItem is one non-retired item: its key and its state in items.
type liveItem struct {
	key Key
	st  *itemState
}

// Trickle multiplexes any number of per-item Trickle timers onto a
// single NodeAPI timer.
//
// A tick costs O(live items), never O(items ever added): retired items
// stay in items (Has, Len and Reset keep their meaning) but leave live,
// the only thing OnTimer and rearm walk (DESIGN.md §12).
type Trickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   map[Key]*itemState
	live    []liveItem  // non-retired items in ascending key order
	due     []Key       // OnTimer's send list, reused across ticks
	fresh   []itemState // unused states: a new key takes one, eight keys per allocation
}

// New creates a Trickle instance. send is invoked from the timer
// context whenever an item's transmission is due and not suppressed.
// The owner must route the NodeAPI timer with timerID to OnTimer.
func New(api *netsim.NodeAPI, timerID int, cfg Config, send func(Key)) *Trickle {
	if cfg.K <= 0 || cfg.TauLow <= 0 || cfg.TauHigh < cfg.TauLow {
		panic("trickle: invalid config")
	}
	return &Trickle{
		api:     api,
		cfg:     cfg,
		timerID: timerID,
		send:    send,
		items:   make(map[Key]*itemState),
	}
}

// Add starts (or restarts) dissemination of key at the fast interval.
func (t *Trickle) Add(key Key) {
	st, ok := t.items[key]
	if !ok {
		if len(t.fresh) == 0 {
			t.fresh = make([]itemState, 8)
		}
		st, t.fresh = &t.fresh[0], t.fresh[1:]
		t.items[key] = st
	}
	*st = itemState{}
	if i, ok := t.findLive(key); !ok {
		t.live = slices.Insert(t.live, i, liveItem{key, st})
	}
	t.startInterval(st, t.cfg.TauLow)
	t.rearm()
}

// findLive returns key's position in live, or where it would insert.
func (t *Trickle) findLive(key Key) (int, bool) {
	return slices.BinarySearchFunc(t.live, key, func(it liveItem, k Key) int {
		return cmp.Compare(it.key, k)
	})
}

// Remove stops dissemination of key (e.g. the chunk belongs to a
// superseded storage index).
func (t *Trickle) Remove(key Key) {
	delete(t.items, key)
	if i, ok := t.findLive(key); ok {
		t.live = slices.Delete(t.live, i, i+1)
	}
	t.rearm()
}

// Has reports whether key is currently under dissemination.
func (t *Trickle) Has(key Key) bool {
	_, ok := t.items[key]
	return ok
}

// Len reports the number of items under dissemination.
func (t *Trickle) Len() int { return len(t.items) }

// Heard records a consistent transmission of key overheard from a
// neighbor, feeding suppression.
func (t *Trickle) Heard(key Key) {
	if st, ok := t.items[key]; ok {
		st.heard++
	}
}

// Reset drops key's interval back to TauLow, used when an
// inconsistency is detected (a neighbor has older data).
func (t *Trickle) Reset(key Key) {
	if st, ok := t.items[key]; ok {
		st.rounds = 0
		if st.retired {
			st.retired = false
			i, _ := t.findLive(key)
			t.live = slices.Insert(t.live, i, liveItem{key, st})
		}
		t.startInterval(st, t.cfg.TauLow)
		t.rearm()
	}
}

func (t *Trickle) startInterval(st *itemState, tau netsim.Time) {
	if tau > t.cfg.TauHigh {
		tau = t.cfg.TauHigh
	}
	st.tau = tau
	st.heard = 0
	st.fired = false
	now := t.api.Now()
	// Fire at a uniform point in the second half of the interval.
	half := tau / 2
	st.fireAt = now + half + netsim.Time(t.api.RandIntn(int(half)+1))
	st.endAt = now + tau
}

// rearm schedules the shared timer for the earliest pending deadline.
func (t *Trickle) rearm() {
	var next netsim.Time = -1
	now := t.api.Now()
	for _, it := range t.live {
		st := it.st
		d := st.fireAt
		if st.fired {
			d = st.endAt
		}
		if next < 0 || d < next {
			next = d
		}
	}
	if next < 0 {
		t.api.CancelTimer(t.timerID)
		return
	}
	delay := next - now
	if delay < 1 {
		delay = 1
	}
	t.api.SetTimer(t.timerID, delay)
}

// OnTimer advances all items whose deadlines have passed; the owner
// must call it when the timer with the configured ID fires. Items are
// processed in key order: interval restarts draw from the shared
// random stream, so iteration order must be deterministic for
// simulations to be reproducible.
func (t *Trickle) OnTimer() {
	now := t.api.Now()
	due := t.due[:0]
	// Walk live in place, compacting out the items this tick retires.
	w := 0
	for _, it := range t.live {
		st := it.st
		if !st.fired && now >= st.fireAt {
			st.fired = true
			if st.heard < t.cfg.K {
				due = append(due, it.key)
			}
		}
		if now >= st.endAt {
			st.rounds++
			if t.cfg.MaxRounds > 0 && st.rounds >= t.cfg.MaxRounds {
				st.retired = true
				continue
			}
			t.startInterval(st, st.tau*2)
		}
		t.live[w] = it
		w++
	}
	clear(t.live[w:])
	t.live = t.live[:w]
	t.due = due
	t.rearm()
	// Send after rearming so a send callback that mutates the item set
	// (Add/Remove) sees a consistent timer.
	for _, key := range due {
		if _, ok := t.items[key]; ok {
			t.send(key)
		}
	}
}
