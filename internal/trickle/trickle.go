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

// item is one key and its timer state, held inline in Trickle.items.
type item struct {
	key     Key
	tau     netsim.Time
	fireAt  netsim.Time
	endAt   netsim.Time
	heard   int32 // consistent transmissions heard this interval
	rounds  int32
	fired   bool // sent (or suppressed) this interval already
	retired bool
}

// Trickle multiplexes any number of per-item Trickle timers onto a
// single NodeAPI timer.
//
// Every item lives in one key-sorted array of inline states, retired
// ones included (Has, Len and Reset keep their meaning), so a key is a
// binary search and an item costs no allocation of its own. A tick
// costs O(live items), never O(items ever added): live lists the
// positions of the non-retired items, the only thing OnTimer and rearm
// walk (DESIGN.md §12).
type Trickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   []item  // every key added and not removed, in ascending key order
	live    []int32 // positions in items of the non-retired items, ascending
	due     []Key   // OnTimer's send list, reused across ticks
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
	}
}

// Clear forgets every item, as New would leave the instance, keeping
// its arrays for reuse (a rebooting owner's path). It does not touch
// the timer.
func (t *Trickle) Clear() {
	t.items, t.live = t.items[:0], t.live[:0]
}

// find returns key's position in items, or where it would insert. Keys
// mostly arrive in ascending order (query IDs, index generations), so
// a key past the last one skips the search. Keys are distinct
// integers, so any other key sits at least last−key places before the
// end, and the search starts there: among dense keys (query IDs) a
// recent one is a few steps from the end.
func (t *Trickle) find(key Key) (int, bool) {
	n := len(t.items)
	if n == 0 || t.items[n-1].key < key {
		return n, false
	}
	lo := 0
	if d := t.items[n-1].key - key; d < Key(n) {
		lo = n - 1 - int(d)
	}
	i, ok := slices.BinarySearchFunc(t.items[lo:], key, func(it item, k Key) int { return cmp.Compare(it.key, k) })
	return lo + i, ok
}

// goLive adds the item at position i to live, keeping live ascending.
func (t *Trickle) goLive(i int) {
	j, _ := slices.BinarySearch(t.live, int32(i))
	t.live = slices.Insert(t.live, j, int32(i))
}

// Add starts (or restarts) dissemination of key at the fast interval.
func (t *Trickle) Add(key Key) {
	i, ok := t.find(key)
	switch {
	case !ok:
		// Positions at and past i move up one to make room.
		for k := len(t.live) - 1; k >= 0 && int(t.live[k]) >= i; k-- {
			t.live[k]++
		}
		t.items = slices.Insert(t.items, i, item{})
		t.goLive(i)
	case t.items[i].retired:
		t.goLive(i)
	}
	it := &t.items[i]
	*it = item{key: key}
	t.startInterval(it, t.cfg.TauLow)
	t.rearm()
}

// Remove stops dissemination of key (e.g. the chunk belongs to a
// superseded storage index).
func (t *Trickle) Remove(key Key) {
	if i, ok := t.find(key); ok {
		if !t.items[i].retired {
			j, _ := slices.BinarySearch(t.live, int32(i))
			t.live = slices.Delete(t.live, j, j+1)
		}
		t.items = slices.Delete(t.items, i, i+1)
		// Positions past i move down one.
		for k := len(t.live) - 1; k >= 0 && int(t.live[k]) > i; k-- {
			t.live[k]--
		}
	}
	t.rearm()
}

// Has reports whether key was added and not removed since: an item
// still gossiping or one retired after MaxRounds intervals.
func (t *Trickle) Has(key Key) bool {
	_, ok := t.find(key)
	return ok
}

// Len reports the number of items added and not removed, retired ones
// included.
func (t *Trickle) Len() int { return len(t.items) }

// Heard records a consistent transmission of key overheard from a
// neighbor, feeding suppression.
func (t *Trickle) Heard(key Key) {
	if i, ok := t.find(key); ok {
		t.items[i].heard++
	}
}

// Reset drops key's interval back to TauLow, used when an
// inconsistency is detected (a neighbor has older data).
func (t *Trickle) Reset(key Key) {
	if i, ok := t.find(key); ok {
		it := &t.items[i]
		it.rounds = 0
		if it.retired {
			it.retired = false
			t.goLive(i)
		}
		t.startInterval(it, t.cfg.TauLow)
		t.rearm()
	}
}

func (t *Trickle) startInterval(it *item, tau netsim.Time) {
	if tau > t.cfg.TauHigh {
		tau = t.cfg.TauHigh
	}
	it.tau = tau
	it.heard = 0
	it.fired = false
	now := t.api.Now()
	// Fire at a uniform point in the second half of the interval.
	half := tau / 2
	it.fireAt = now + half + netsim.Time(t.api.RandIntn(int(half)+1))
	it.endAt = now + tau
}

// rearm schedules the shared timer for the earliest pending deadline.
func (t *Trickle) rearm() {
	var next netsim.Time = -1
	now := t.api.Now()
	for _, i := range t.live {
		it := &t.items[i]
		d := it.fireAt
		if it.fired {
			d = it.endAt
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
	for _, i := range t.live {
		it := &t.items[i]
		if !it.fired && now >= it.fireAt {
			it.fired = true
			if int(it.heard) < t.cfg.K {
				due = append(due, it.key)
			}
		}
		if now >= it.endAt {
			it.rounds++
			if t.cfg.MaxRounds > 0 && int(it.rounds) >= t.cfg.MaxRounds {
				it.retired = true
				continue
			}
			t.startInterval(it, it.tau*2)
		}
		t.live[w] = i
		w++
	}
	t.live = t.live[:w]
	t.due = due
	t.rearm()
	// Send after rearming so a send callback that mutates the item set
	// (Add/Remove) sees a consistent timer.
	for _, key := range due {
		if t.Has(key) {
			t.send(key)
		}
	}
}
