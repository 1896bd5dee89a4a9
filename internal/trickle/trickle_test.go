package trickle

import (
	"fmt"
	"math/rand"
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

// harness runs one Trickle instance on node 0 of a 2-node network.
type harness struct {
	tr    *Trickle
	sends []Key
	cfg   Config
}

const trickleTimer = 9

func (h *harness) Init(api *netsim.NodeAPI) {
	h.tr = New(api, trickleTimer, h.cfg, func(k Key) { h.sends = append(h.sends, k) })
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

func TestTrickleResetRestoresFastGossip(t *testing.T) {
	cfg := Config{TauLow: 500 * netsim.Millisecond, TauHigh: 32 * netsim.Second, K: 1}
	h, sim := newHarness(cfg, 5)
	h.tr.Add(1)
	sim.Run(40 * netsim.Second) // let it back off to TauHigh
	slowSends := len(h.sends)
	h.tr.Reset(1)
	sim.Run(sim.Now() + 4*netsim.Second)
	fastSends := len(h.sends) - slowSends
	if fastSends < 2 {
		t.Fatalf("only %d sends in 4s after reset; want fast gossip again", fastSends)
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

func TestTrickleRemove(t *testing.T) {
	cfg := Config{TauLow: netsim.Second, TauHigh: netsim.Second, K: 1}
	h, sim := newHarness(cfg, 7)
	h.tr.Add(1)
	h.tr.Add(2)
	sim.Run(3 * netsim.Second)
	h.tr.Remove(1)
	if h.tr.Has(1) || !h.tr.Has(2) {
		t.Fatal("Remove removed the wrong item")
	}
	before := len(h.sends)
	sim.Run(sim.Now() + 5*netsim.Second)
	for _, k := range h.sends[before:] {
		if k == 1 {
			t.Fatal("removed item still gossiping")
		}
	}
	if h.tr.Len() != 1 {
		t.Fatalf("len = %d", h.tr.Len())
	}
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
	h.tr.Reset(99)
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
	New(nil, 1, Config{TauLow: 10, TauHigh: 5, K: 1}, nil)
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

// refTrickle is the pre-live-list implementation, kept as the reference
// model: one heap object per key in a map, every tick collects every
// key ever added from the map, sorts them and skips the retired ones,
// and rearm ranges the same map. Its cost grows with run history; its
// behaviour is the specification.
type refTrickle struct {
	api     *netsim.NodeAPI
	cfg     Config
	timerID int
	send    func(Key)
	items   map[Key]*refState
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
	st := &refState{}
	t.items[key] = st
	t.startInterval(st, t.cfg.TauLow)
	t.rearm()
}

func (t *refTrickle) Remove(key Key) {
	delete(t.items, key)
	t.rearm()
}

func (t *refTrickle) Has(key Key) bool { _, ok := t.items[key]; return ok }
func (t *refTrickle) Len() int         { return len(t.items) }
func (t *refTrickle) Clear()           { t.items = make(map[Key]*refState) }

func (t *refTrickle) Heard(key Key) {
	if st, ok := t.items[key]; ok {
		st.heard++
	}
}

func (t *refTrickle) Reset(key Key) {
	if st, ok := t.items[key]; ok {
		st.rounds = 0
		st.retired = false
		t.startInterval(st, t.cfg.TauLow)
		t.rearm()
	}
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
				continue
			}
			t.startInterval(st, st.tau*2)
		}
	}
	t.rearm()
	for _, key := range due {
		if _, ok := t.items[key]; ok {
			t.send(key)
		}
	}
}

// gossip is what the equivalence driver needs of either implementation.
type gossip interface {
	Add(Key)
	Remove(Key)
	Reset(Key)
	Heard(Key)
	Clear()
	OnTimer()
	Has(Key) bool
	Len() int
}

// modelApp hosts one implementation on node 0 and logs everything
// observable from outside: each timer fire and each send, with its
// virtual time. Sends of keys divisible by 5 remove the key and sends
// of keys ≡ 3 mod 7 add a neighbour key, so the send loop runs against
// an item set that mutates under it.
type modelApp struct {
	ref bool
	cfg Config
	g   gossip
	api *netsim.NodeAPI
	log []string
}

func (m *modelApp) Init(api *netsim.NodeAPI) {
	m.api = api
	send := func(k Key) {
		m.log = append(m.log, fmt.Sprintf("%d send %d", api.Now(), k))
		switch {
		case k%5 == 0:
			m.g.Remove(k)
		case k%7 == 3:
			m.g.Add(k + 1)
		}
	}
	if m.ref {
		m.g = &refTrickle{api: api, cfg: m.cfg, timerID: trickleTimer, send: send,
			items: make(map[Key]*refState)}
	} else {
		m.g = New(api, trickleTimer, m.cfg, send)
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
	m := &modelApp{ref: ref, cfg: cfg}
	net.Attach(0, m)
	net.Start()
	return m, sim
}

// TestOnTimerMatchesReferenceModel drives the flat implementation and
// the reference model with one random script of Add / Remove / Reset /
// Heard / Clear / spurious OnTimer calls on a shared seed — keys from
// a small range in any order, so items insert and delete mid-array as
// well as at the end — and requires the same sends in the same order
// at the same times, the same timer fires (so the same arms), the same
// Len and the same Has of the op's key after every op, the same number
// of scheduled events, the same membership, and the same position in
// the node's random stream.
func TestOnTimerMatchesReferenceModel(t *testing.T) {
	cfgs := []Config{
		{TauLow: 200, TauHigh: 3 * netsim.Second, K: 1, MaxRounds: 3},
		{TauLow: 500, TauHigh: 8 * netsim.Second, K: 2, MaxRounds: 0},
		{TauLow: 100, TauHigh: 100, K: 1, MaxRounds: 1},
	}
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
						g.g.Add(key)
					case kind < 30:
						g.g.Remove(key)
					case kind < 42:
						g.g.Reset(key)
					case kind < 54:
						g.g.Heard(key)
					case kind < 60:
						g.g.OnTimer()
					default:
						g.g.Clear()
					}
					g.log = append(g.log, fmt.Sprintf("%d op %d key %d: Has %v Len %d",
						g.api.Now(), kind, key, g.g.Has(key), g.g.Len()))
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
		if g, w := got.g.Len(), want.g.Len(); g != w {
			t.Fatalf("seed %d: Len %d, reference %d", seed, g, w)
		}
		for k := Key(0); k < 20; k++ {
			if got.g.Has(k) != want.g.Has(k) {
				t.Fatalf("seed %d: Has(%d) differs from reference", seed, k)
			}
		}
		if g, w := got.api.RandIntn(1<<30), want.api.RandIntn(1<<30); g != w {
			t.Fatalf("seed %d: random stream position differs from reference", seed)
		}
	}
}

// TestOnTimerIgnoresRetired pins the tick cost to the live item count:
// with one live item and 10 000 retired ones a tick visits one item and
// allocates nothing.
func TestOnTimerIgnoresRetired(t *testing.T) {
	cfg := Config{TauLow: 100, TauHigh: 100, K: 1, MaxRounds: 1}
	topo := netsim.NewTopology(1)
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim, topo, metrics.NewCounters(), netsim.DefaultParams())
	sends := 0
	h := &harness{cfg: cfg}
	net.Attach(0, h)
	net.Start()
	h.tr.send = func(Key) { sends++ }
	for k := Key(1); k <= 10000; k++ {
		h.tr.Add(k)
	}
	sim.Run(netsim.Second) // MaxRounds 1: every item retires after one interval
	if len(h.tr.live) != 0 || h.tr.Len() != 10000 || sim.Pending() != 0 {
		t.Fatalf("after retirement: live %d, Len %d, pending %d; want 0, 10000, 0",
			len(h.tr.live), h.tr.Len(), sim.Pending())
	}
	// One immortal item: Reset every tick from the send callback.
	h.tr.send = func(k Key) { sends++; h.tr.Reset(k) }
	h.tr.Add(0)
	sends = 0
	allocs := testing.AllocsPerRun(200, func() {
		if !sim.Step() {
			t.Fatal("timer chain died")
		}
	})
	if allocs != 0 {
		t.Fatalf("OnTimer allocates %.1f/op with 10000 retired items; want 0", allocs)
	}
	if len(h.tr.live) != 1 || h.tr.Len() != 10001 {
		t.Fatalf("live %d, Len %d; want 1, 10001", len(h.tr.live), h.tr.Len())
	}
	if sends == 0 {
		t.Fatal("the live item never sent")
	}
}
