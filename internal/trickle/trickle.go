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
// The package is transport-agnostic: the owner supplies a Sender that
// actually broadcasts the item (and may itself decline, as Scoop's
// bitmap-filtered query re-broadcast does).
package trickle

import (
	"cmp"
	"slices"

	"scoop/internal/netsim"
)

// Key identifies one item under dissemination. Owners encode their own
// structure (e.g. index-id<<16 | chunk-no).
type Key uint64

// Config tunes Trickle, one Config per disseminated kind (Levis et
// al. fix τl, τh and k per instance). The zero value is unusable.
type Config struct {
	TauLow  netsim.Time // initial/reset interval
	TauHigh netsim.Time // interval cap
	K       int         // redundancy constant (suppression threshold)
	// MaxRounds, when >0, retires an item after that many intervals.
	// Scoop retires query gossip quickly but keeps mapping chunks
	// gossiping slowly until superseded.
	MaxRounds int
}

// Sender transmits an item whose transmission is due and not
// suppressed. OnTimer calls Gossip with the instance's timer id, so one
// owner serves several instances, and an owner held by pointer is an
// interface value without an allocation (a method value would be one).
type Sender interface {
	Gossip(timerID int, key Key)
}

// minItems is the capacity an instance's item array and send list start
// at, so the few keys an instance holds at once take one array, not one
// per doubling.
const minItems = 8

// blocks is where a network's Trickles grow their item arrays and send
// lists (netsim.Shared): an instance takes its arrays on first use and
// looks the blocks up only then, so a network's Trickles cost
// allocations by the items they hold in all, not one per node.
type blocks struct {
	items netsim.Blocks[item]
	due   netsim.Blocks[due]
}

// item is one key and its timer state, held inline in Trickle.items.
type item struct {
	key    Key
	tau    netsim.Time
	fireAt netsim.Time
	endAt  netsim.Time
	heard  int32 // consistent transmissions heard this interval
	rounds int32
	fired  bool // sent (or suppressed) this interval already
}

// due is a key OnTimer sends after rearming, and whether it retired in
// the same tick.
type due struct {
	key     Key
	retired bool
}

// Trickle multiplexes any number of per-item Trickle timers onto a
// single NodeAPI timer.
//
// The items live in one key-sorted array of inline states, so a key is
// a binary search and an item costs no allocation of its own. An item
// that retires after MaxRounds intervals is deleted, as Levis et al.
// keep timer state only for what is still disseminated: the array holds
// exactly the live keys, and a tick costs O(live items), never O(items
// ever added) (DESIGN.md §12). A Trickle is held by value and built in
// place by Init.
type Trickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    Sender
	items   []item // the live keys, ascending
	due     []due  // OnTimer's send list, empty between ticks
}

// Init builds a Trickle instance in place, keeping the arrays it
// already has. send is told from the timer context whenever an item's
// transmission is due and not suppressed. The owner must route the
// NodeAPI timer with timerID to OnTimer.
func (t *Trickle) Init(api *netsim.NodeAPI, timerID int, cfg Config, send Sender) {
	if cfg.K <= 0 || cfg.TauLow <= 0 || cfg.TauHigh < cfg.TauLow {
		panic("trickle: invalid config")
	}
	t.api, t.cfg, t.timerID, t.send = api, cfg, timerID, send
	t.Clear()
}

// Clear forgets every item, as Init leaves the instance, keeping its
// arrays for reuse (a rebooting owner's path); called from OnTimer's
// send loop, it also unsends the keys that retired in that tick. It
// does not touch the timer.
func (t *Trickle) Clear() {
	t.items = t.items[:0]
	for i := range t.due {
		t.due[i].retired = false
	}
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

// Add starts (or restarts) dissemination of key at the fast interval:
// a new key, a live one, or one that retired.
func (t *Trickle) Add(key Key) {
	i, ok := t.find(key)
	if !ok {
		if len(t.items) == cap(t.items) {
			t.items = netsim.Grow(&netsim.Shared[blocks](t.api).items, t.items, minItems)
		}
		t.items = slices.Insert(t.items, i, item{})
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
		t.items = slices.Delete(t.items, i, i+1)
	}
	// A key that retired this tick and is removed before its turn in
	// OnTimer's send loop is not sent.
	for i := range t.due {
		if t.due[i].key == key {
			t.due[i].retired = false
		}
	}
	t.rearm()
}

// Holds reports whether key is live: added, and neither retired nor
// removed since.
func (t *Trickle) Holds(key Key) bool {
	_, ok := t.find(key)
	return ok
}

// Len returns the number of live keys.
func (t *Trickle) Len() int { return len(t.items) }

// Heard records a consistent transmission of key overheard from a
// neighbor, feeding suppression. A retired key has no interval to
// suppress in.
func (t *Trickle) Heard(key Key) {
	if i, ok := t.find(key); ok {
		t.items[i].heard++
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
	for i := range t.items {
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
	sends := t.due[:0]
	// Walk the items in place, compacting out the ones this tick retires.
	w := 0
	for i := range t.items {
		it := t.items[i]
		fired := false
		if !it.fired && now >= it.fireAt {
			it.fired = true
			if fired = int(it.heard) < t.cfg.K; fired {
				if len(sends) == cap(sends) {
					sends = netsim.Grow(&netsim.Shared[blocks](t.api).due, sends, minItems)
				}
				sends = append(sends, due{key: it.key})
			}
		}
		if now >= it.endAt {
			it.rounds++
			if t.cfg.MaxRounds > 0 && int(it.rounds) >= t.cfg.MaxRounds {
				if fired {
					sends[len(sends)-1].retired = true
				}
				continue
			}
			t.startInterval(&it, it.tau*2)
		}
		t.items[w] = it
		w++
	}
	t.items = t.items[:w]
	t.due = sends
	t.rearm()
	// Send after rearming so a send callback that mutates the item set
	// (Add/Remove/Clear) sees a consistent timer. A key goes out if it
	// is still live, or retired this tick and was not removed since.
	for i := range sends {
		if d := sends[i]; d.retired {
			t.send.Gossip(t.timerID, d.key)
		} else if _, ok := t.find(d.key); ok {
			t.send.Gossip(t.timerID, d.key)
		}
	}
	t.due = sends[:0]
}
