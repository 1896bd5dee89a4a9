package trickle

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"scoop/internal/metrics"
	"scoop/internal/netsim"
)

// DefaultConfig returns the Trickle parameters the tests run: fast
// initial spread, one-minute steady state.
func DefaultConfig() Config {
	return Config{
		TauLow:    500 * netsim.Millisecond,
		TauHigh:   60 * netsim.Second,
		K:         1,
		MaxRounds: 0,
	}
}

// sendFunc is a Sender that calls itself.
type sendFunc func(Key)

func (f sendFunc) Gossip(_ int, k Key) { f(k) }

// harness runs one Trickle instance on node 0 of a 2-node network.
type harness struct {
	tr    *Trickle
	sends []Key
	cfg   Config
}

const trickleTimer = 9

func (h *harness) Init(api *netsim.NodeAPI) {
	h.tr = new(Trickle)
	h.tr.Init(api, trickleTimer, h.cfg, sendFunc(func(k Key) { h.sends = append(h.sends, k) }))
}
func (h *harness) Receive(p *netsim.Packet) {}
func (h *harness) Snoop(p *netsim.Packet)   {}
func (h *harness) Timer(id int) {
	if id == trickleTimer {
		h.tr.OnTimer()
	}
}

func newHarness(cfg Config, seed int64) (*harness, *netsim.Simulator) {
	topo := netsim.NewTopology(2)
	topo.Pos = make([]netsim.Point, 2)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	h := &harness{cfg: cfg}
	net.Attach(0, h)
	net.Attach(1, &harness{cfg: cfg})
	net.Start()
	return h, sim
}

func TestTrickleSendsOncePerInterval(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 1)
	h.tr.Add(5)
	sim.Run(10 * netsim.Second)
	// Fixed 1s intervals for 10s: roughly one send per interval.
	if len(h.sends) < 8 || len(h.sends) > 11 {
		t.Fatalf("sends = %d, want ~10", len(h.sends))
	}
	for _, k := range h.sends {
		if k != 5 {
			t.Fatalf("sent wrong key %d", k)
		}
	}
}

func TestTrickleIntervalDoubling(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: 16 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 2)
	h.tr.Add(1)
	sim.Run(60 * netsim.Second)
	// Intervals: 1+2+4+8+16+16+... → far fewer than 60 sends.
	if len(h.sends) > 10 {
		t.Fatalf("sends = %d; interval doubling not slowing gossip", len(h.sends))
	}
	if len(h.sends) < 4 {
		t.Fatalf("sends = %d; gossip died prematurely", len(h.sends))
	}
}

func TestTrickleSuppression(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 3)
	h.tr.Add(1)
	// Simulate hearing the same item constantly: suppress every send.
	stop := false
	var feed func()
	feed = func() {
		if stop {
			return
		}
		h.tr.Heard(1)
		sim.After(100*netsim.Millisecond, feed)
	}
	sim.After(1, feed)
	sim.Run(10 * netsim.Second)
	stop = true
	if len(h.sends) > 1 {
		t.Fatalf("sends = %d despite constant hearing; suppression broken", len(h.sends))
	}
}

func TestTrickleKThreshold(t *testing.T) {
	// With K=2, hearing the item once per interval must NOT suppress.
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 2}
	h, sim := newHarness(cfg, 4)
	h.tr.Add(1)
	var feed func()
	feed = func() {
		h.tr.Heard(1)
		sim.After(netsim.Second, feed)
	}
	sim.After(1, feed)
	sim.Run(10 * netsim.Second)
	if len(h.sends) < 7 {
		t.Fatalf("sends = %d; K=2 should not suppress on single hearings", len(h.sends))
	}
}

func TestTrickleMaxRoundsRetires(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1, MaxRounds: 3}
	h, sim := newHarness(cfg, 6)
	h.tr.Add(1)
	sim.Run(20 * netsim.Second)
	if len(h.sends) > 3 {
		t.Fatalf("sends = %d; item should retire after 3 rounds", len(h.sends))
	}
}

// TestTrickleHolds: a key is held from Add until it is removed, retires
// or the instance is cleared, and held again once added again; Len
// counts the held keys.
func TestTrickleHolds(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1, MaxRounds: 3}
	h, sim := newHarness(cfg, 6)
	holds := func(want ...Key) {
		t.Helper()
		for k := Key(0); k < 5; k++ {
			if got := h.tr.Holds(k); got != slices.Contains(want, k) {
				t.Fatalf("at %v Holds(%d) = %v, want the held keys to be %v", sim.Now(), k, got, want)
			}
		}
		if h.tr.Len() != len(want) {
			t.Fatalf("at %v Len() = %d, want %d", sim.Now(), h.tr.Len(), len(want))
		}
	}
	holds()
	h.tr.Add(1)
	h.tr.Add(3)
	h.tr.Add(2)
	holds(1, 2, 3)
	h.tr.Remove(2)
	holds(1, 3)
	sim.Run(2500 * netsim.Millisecond)
	h.tr.Add(4)
	holds(1, 3, 4)
	sim.Run(3 * netsim.Second) // 1 and 3, added at 0, retire after three one-second rounds; 4 lives on
	holds(4)
	h.tr.Add(1)
	holds(1, 4)
	h.tr.Clear()
	holds()
}

func TestTrickleRemove(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 7)
	h.tr.Add(1)
	h.tr.Add(2)
	sim.Run(3 * netsim.Second)
	h.tr.Remove(1)
	if got := liveKeys(h.tr); !slices.Equal(got, []Key{2}) {
		t.Fatalf("after Remove(1) the Trickle holds %v, want [2]", got)
	}
	before := len(h.sends)
	sim.Run(sim.Now() + 5*netsim.Second)
	for _, k := range h.sends[before:] {
		if k == 1 {
			t.Fatal("removed item still gossiping")
		}
	}
}

// liveKeys returns the keys t holds, in its order.
func liveKeys(t *Trickle) []Key {
	keys := []Key{}
	for _, it := range t.items {
		keys = append(keys, it.key)
	}
	return keys
}

func TestTrickleMultipleItemsIndependent(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 8)
	h.tr.Add(10)
	h.tr.Add(20)
	sim.Run(5 * netsim.Second)
	counts := map[Key]int{}
	for _, k := range h.sends {
		counts[k]++
	}
	if counts[10] < 3 || counts[20] < 3 {
		t.Fatalf("per-item sends %v; both items must gossip", counts)
	}
}

func TestTrickleHeardUnknownKeyIgnored(t *testing.T) {
	cfg := DefaultConfig()
	h, sim := newHarness(cfg, 9)
	h.tr.Heard(99) // must not panic
	sim.Run(netsim.Second)
}

func TestTrickleInvalidConfigPanics(t *testing.T) {
	h, _ := newHarness(DefaultConfig(), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_ = h
	new(Trickle).Init(nil, 1, Config{TauLow: 10, TauHigh: 5, K: 1}, nil)
}

func TestTrickleReAddRestartsFast(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 32 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 11)
	h.tr.Add(1)
	sim.Run(40 * netsim.Second)
	n := len(h.sends)
	h.tr.Add(1) // re-add resets to TauLow
	sim.Run(sim.Now() + 3*netsim.Second)
	if len(h.sends)-n < 2 {
		t.Fatalf("re-Add did not restart fast gossip (%d new sends)", len(h.sends)-n)
	}
}

// refTrickle is the map-based implementation, kept as the reference
// model: one heap object per key in a map, retired keys kept and
// skipped, every tick collects every key ever added from the map, sorts
// them, and rearm ranges the same map. Its cost grows with run history;
// its behaviour is the specification. It counts the corners retiring
// by deletion must get right, so the test can require that the script
// reached each of them.
type refTrickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   map[Key]*refState

	sameTick     int // sends of keys that fired and retired in one tick
	readded      int // Adds of a retired key
	heardRetired int // Heards of a retired key
}

type refState struct {
	tau     netsim.Time
	heard   int
	fireAt  netsim.Time
	endAt   netsim.Time
	fired   bool
	rounds  int
	retired bool
}

func (t *refTrickle) Add(key Key) {
	if st, ok := t.items[key]; ok && st.retired {
		t.readded++
	}
	st := &refState{}
	t.items[key] = st
	t.startInterval(st, t.cfg.TauLow)
	t.rearm()
}

func (t *refTrickle) Remove(key Key) {
	delete(t.items, key)
	t.rearm()
}

func (t *refTrickle) Clear() { t.items = make(map[Key]*refState) }

func (t *refTrickle) Heard(key Key) {
	if st, ok := t.items[key]; ok {
		if st.retired {
			t.heardRetired++
		}
		st.heard++
	}
}

// live returns the keys still gossiping, ascending.
func (t *refTrickle) live() []Key {
	keys := []Key{}
	for key, st := range t.items {
		if !st.retired {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

func (t *refTrickle) startInterval(st *refState, tau netsim.Time) {
	if tau > t.cfg.TauHigh {
		tau = t.cfg.TauHigh
	}
	st.tau = tau
	st.heard = 0
	st.fired = false
	now := t.api.Now()
	half := tau / 2
	st.fireAt = now + half + netsim.Time(t.api.RandIntn(int(half)+1))
	st.endAt = now + tau
}

func (t *refTrickle) rearm() {
	var next netsim.Time = -1
	now := t.api.Now()
	for _, st := range t.items {
		if st.retired {
			continue
		}
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

func (t *refTrickle) OnTimer() {
	now := t.api.Now()
	keys := make([]Key, 0, len(t.items))
	for key := range t.items {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var due []Key
	retiredNow := map[Key]*refState{}
	for _, key := range keys {
		st := t.items[key]
		if st.retired {
			continue
		}
		if !st.fired && now >= st.fireAt {
			st.fired = true
			if st.heard < t.cfg.K {
				due = append(due, key)
			}
		}
		if now >= st.endAt {
			st.rounds++
			if t.cfg.MaxRounds > 0 && st.rounds >= t.cfg.MaxRounds {
				st.retired = true
				retiredNow[key] = st
				continue
			}
			t.startInterval(st, st.tau*2)
		}
	}
	t.rearm()
	for _, key := range due {
		if st, ok := t.items[key]; ok {
			if st == retiredNow[key] && st.retired {
				t.sameTick++
			}
			t.send(key)
		}
	}
}

// gossip is what the equivalence driver needs of either implementation.
type gossip interface {
	Add(Key)
	Remove(Key)
	Heard(Key)
	Clear()
	OnTimer()
}

// modelApp hosts one implementation on node 0 and logs everything
// observable from outside: each timer fire and each send, with its
// virtual time. Sends of keys divisible by 5 remove the key, sends of
// keys ≡ 3 mod 7 add the next key, sends of keys ≡ 4 mod 11 remove it
// and sends of keys ≡ 6 mod 13 clear the set, so the send loop runs
// against an item set that mutates under it, a key still to be sent
// in the same tick included. set is what core's ChunkSet is to
// its Trickle: every key added and not removed since the last Clear,
// live or retired, which a revival adds again in ascending order
// (core.resetChunks).
type modelApp struct {
	ref *refTrickle // the reference side
	got *Trickle    // the side under test
	cfg Config
	g   gossip
	set map[Key]bool
	api *netsim.NodeAPI
	log []string
}

func (m *modelApp) add(k Key)    { m.set[k] = true; m.g.Add(k) }
func (m *modelApp) remove(k Key) { delete(m.set, k); m.g.Remove(k) }
func (m *modelApp) clear()       { clear(m.set); m.g.Clear() }

// revive adds every key of the set again, in key order.
func (m *modelApp) revive() {
	keys := make([]Key, 0, len(m.set))
	for k := range m.set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		m.g.Add(k)
	}
}

// live returns the keys still gossiping, ascending.
func (m *modelApp) live() []Key {
	if m.ref != nil {
		return m.ref.live()
	}
	return liveKeys(m.got)
}

func (m *modelApp) Init(api *netsim.NodeAPI) {
	m.api = api
	send := func(k Key) {
		m.log = append(m.log, fmt.Sprintf("%d send %d", api.Now(), k))
		switch {
		case k%5 == 0:
			m.remove(k)
		case k%7 == 3:
			m.add(k + 1)
		case k%11 == 4:
			m.remove(k + 1)
		case k%13 == 6:
			m.clear()
		}
	}
	if m.ref != nil {
		m.ref = &refTrickle{api: api, cfg: m.cfg, timerID: trickleTimer, send: send,
			items: make(map[Key]*refState)}
		m.g = m.ref
	} else {
		m.got = new(Trickle)
		m.got.Init(api, trickleTimer, m.cfg, sendFunc(send))
		m.g = m.got
	}
}
func (m *modelApp) Receive(p *netsim.Packet) {}
func (m *modelApp) Snoop(p *netsim.Packet)   {}
func (m *modelApp) Timer(id int) {
	m.log = append(m.log, fmt.Sprintf("%d timer", m.api.Now()))
	m.g.OnTimer()
}

func newModel(ref bool, cfg Config, seed int64) (*modelApp, *netsim.Simulator) {
	topo := netsim.NewTopology(1)
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	m := &modelApp{cfg: cfg, set: map[Key]bool{}}
	if ref {
		m.ref = &refTrickle{} // Init builds it
	}
	net.Attach(0, m)
	net.Start()
	return m, sim
}

// TestOnTimerMatchesReferenceModel drives the flat implementation and
// the reference model with one random script of Add / Remove / Heard /
// Clear / spurious OnTimer calls and revivals on a shared seed — keys
// from a small range in any order, so items insert and delete
// mid-array as well as at the end — and requires the same sends in the
// same order at the same times, the same timer fires (so the same
// arms), the same live keys after every op, the same number of
// scheduled events and the same position in the node's random stream.
// The reference keeps retired keys; the flat one deletes them. Four
// corners of that difference must each occur: a key that fires and
// retires in one tick (still sent: the fourth config's 2 ms interval
// fires at its end half the time), a retired key added again, Heard on
// a retired key, and a revival in the way core.resetChunks does one.
func TestOnTimerMatchesReferenceModel(t *testing.T) {
	cfgs := []Config{
		{TauLow: 200, TauHigh: 3 * netsim.Second, K: 1, MaxRounds: 3},
		{TauLow: 500, TauHigh: 8 * netsim.Second, K: 2, MaxRounds: 0},
		{TauLow: 100, TauHigh: 100, K: 1, MaxRounds: 1},
		{TauLow: 2, TauHigh: 6, K: 1, MaxRounds: 1},
	}
	var sameTick, readded, heardRetired, revived int
	for seed := int64(1); seed <= 40; seed++ {
		cfg := cfgs[seed%int64(len(cfgs))]
		got, gotSim := newModel(false, cfg, seed)
		want, wantSim := newModel(true, cfg, seed)
		script := rand.New(rand.NewSource(seed * 977))
		at := netsim.Time(0)
		for op := 0; op < 400; op++ {
			at += netsim.Time(script.Intn(400))
			kind, key := script.Intn(61), Key(script.Intn(16))
			for _, m := range []struct {
				app *modelApp
				sim *netsim.Simulator
			}{{got, gotSim}, {want, wantSim}} {
				g := m.app
				m.sim.At(at, func() {
					switch {
					case kind < 24:
						g.add(key)
					case kind < 30:
						g.remove(key)
					case kind < 42:
						if g.ref != nil {
							revived += len(g.set) - len(g.ref.live())
						}
						g.revive()
					case kind < 54:
						g.g.Heard(key)
					case kind < 60:
						g.g.OnTimer()
					default:
						g.clear()
					}
					g.log = append(g.log, fmt.Sprintf("%d op %d key %d: live %v",
						g.api.Now(), kind, key, g.live()))
				})
			}
		}
		end := at + 30*netsim.Second
		gotSim.Run(end)
		wantSim.Run(end)
		if len(got.log) < 100 {
			t.Fatalf("seed %d: only %d log lines; script too quiet to prove anything", seed, len(got.log))
		}
		for i := 0; i < len(got.log) && i < len(want.log); i++ {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: log line %d: got %q, want %q", seed, i, got.log[i], want.log[i])
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d log lines, reference has %d", seed, len(got.log), len(want.log))
		}
		if g, w := gotSim.Pending(), wantSim.Pending(); g != w {
			t.Fatalf("seed %d: %d events pending, reference has %d (different timer arms)", seed, g, w)
		}
		if g, w := got.live(), want.live(); !slices.Equal(g, w) {
			t.Fatalf("seed %d: live keys %v, reference %v", seed, g, w)
		}
		if g, w := got.api.RandIntn(1<<30), want.api.RandIntn(1<<30); g != w {
			t.Fatalf("seed %d: random stream position differs from reference", seed)
		}
		sameTick += want.ref.sameTick
		readded += want.ref.readded
		heardRetired += want.ref.heardRetired
	}
	t.Logf("corners reached: %d same-tick fire-and-retire sends, %d retired keys added again, %d Heards of a retired key, %d retired keys revived",
		sameTick, readded, heardRetired, revived)
	if sameTick == 0 || readded == 0 || heardRetired == 0 || revived == 0 {
		t.Fatal("the script missed a corner of retiring by deletion")
	}
}

// TestOnTimerIgnoresRetired pins the tick cost to the live item count:
// 10 000 items retire and are gone, and with one live item left a tick
// visits one item and allocates nothing.
func TestOnTimerIgnoresRetired(t *testing.T) {
	cfg := Config{TauLow: 100, TauHigh: 100, K: 1, MaxRounds: 1}
	topo := netsim.NewTopology(1)
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	sends := 0
	h := &harness{cfg: cfg}
	net.Attach(0, h)
	net.Start()
	h.tr.send = sendFunc(func(Key) { sends++ })
	for k := Key(1); k <= 10000; k++ {
		h.tr.Add(k)
	}
	sim.Run(netsim.Second) // MaxRounds 1: every item retires after one interval
	if len(h.tr.items) != 0 || sim.Pending() != 0 {
		t.Fatalf("after retirement: %d items, %d pending; want 0, 0", len(h.tr.items), sim.Pending())
	}
	// One immortal item: added again every tick from the send callback.
	h.tr.send = sendFunc(func(k Key) { sends++; h.tr.Add(k) })
	h.tr.Add(0)
	sends = 0
	allocs := testing.AllocsPerRun(200, func() {
		if !sim.Step() {
			t.Fatal("timer chain died")
		}
	})
	if allocs != 0 {
		t.Fatalf("OnTimer allocates %.1f/op after 10000 items retired; want 0", allocs)
	}
	if got := liveKeys(h.tr); !slices.Equal(got, []Key{0}) {
		t.Fatalf("the Trickle holds %v; want [0]", got)
	}
	if sends == 0 {
		t.Fatal("the live item never sent")
	}
}

// TestAddGossipRetireZeroAllocs: once warm, a cycle that adds 200 keys
// in scattered order, gossips every one of them until it retires and
// leaves the Trickle empty allocates nothing. The item array and the
// send list keep their capacity, and the timer tasks go back to the
// network's free list.
func TestAddGossipRetireZeroAllocs(t *testing.T) {
	cfg := Config{TauLow: 100, TauHigh: 400, K: 1, MaxRounds: 3}
	h, sim := newHarness(cfg, 12)
	sends := 0
	h.tr.send = sendFunc(func(Key) { sends++ })
	cycle := func() {
		for i := Key(0); i < 200; i++ {
			h.tr.Add(i * 37 % 200)
		}
		sim.Run(sim.Now() + 10*netsim.Second)
		if len(h.tr.items) != 0 {
			t.Fatalf("%d items left after MaxRounds", len(h.tr.items))
		}
	}
	cycle() // warm the arrays, the timer pool and the event queue
	allocs := testing.AllocsPerRun(20, cycle)
	if allocs != 0 {
		t.Fatalf("an add-gossip-retire cycle over 200 keys allocates %.1f objects; want 0", allocs)
	}
	if sends < 21*200*cfg.MaxRounds {
		t.Fatalf("%d sends over 21 cycles of 200 keys; every key should send each round", sends)
	}
}

// TestSendLoopHonoursMutations: keys 1 and 2 fire and retire in the same
// tick, and key 1's send callback changes the set before key 2's turn.
// Key 2 goes out unless the callback removed it (or cleared the set)
// and did not add it again — what the reference's membership check
// after rearming decides, although key 2 is no longer held once it
// retired.
func TestSendLoopHonoursMutations(t *testing.T) {
	cfg := Config{TauLow: 2, TauHigh: 2, K: 1, MaxRounds: 1}
	for _, tc := range []struct {
		name   string
		mutate func(tr *Trickle)
		want   []Key
		live   []Key
	}{
		{"untouched", func(*Trickle) {}, []Key{1, 2}, []Key{}},
		{"removed", func(tr *Trickle) { tr.Remove(2) }, []Key{1}, []Key{}},
		{"cleared", func(tr *Trickle) { tr.Clear() }, []Key{1}, []Key{}},
		{"removed and added", func(tr *Trickle) { tr.Remove(2); tr.Add(2) }, []Key{1, 2}, []Key{2}},
		{"added", func(tr *Trickle) { tr.Add(2) }, []Key{1, 2}, []Key{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); ; seed++ {
				if seed > 64 {
					t.Fatal("no seed fires both keys at the end of their interval")
				}
				h, sim := newHarness(cfg, seed)
				var sends []Key
				h.tr.send = sendFunc(func(k Key) {
					sends = append(sends, k)
					if k == 1 {
						tc.mutate(h.tr)
					}
				})
				h.tr.Add(1)
				h.tr.Add(2)
				if it := h.tr.items; it[0].fireAt != it[0].endAt || it[1].fireAt != it[1].endAt {
					continue // a key fires before it retires
				}
				sim.Run(sim.Now() + 2)
				if !slices.Equal(sends, tc.want) {
					t.Fatalf("seed %d: sent %v, want %v", seed, sends, tc.want)
				}
				if got := liveKeys(h.tr); !slices.Equal(got, tc.live) {
					t.Fatalf("seed %d: holds %v after the tick, want %v", seed, got, tc.live)
				}
				return
			}
		})
	}
}
