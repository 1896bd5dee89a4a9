package netsim

import (
	"slices"
	"testing"

	"scoop/internal/metrics"
)

// countedPayload is a recycled payload that counts its Recycle calls
// and notes each in the test's event log.
type countedPayload struct {
	Refs
	recycled int
	log      *[]string
}

func (c *countedPayload) Recycle() {
	c.recycled++
	if c.log != nil {
		*c.log = append(*c.log, "recycle")
	}
}

// lifeApp counts the frames it receives — and those whose recycled
// payload was already recycled when it arrived — and notes each
// reception in the event log when it has one.
type lifeApp struct {
	name       string
	log        *[]string
	got, stale int
}

func (l *lifeApp) Init(*NodeAPI) {}
func (l *lifeApp) Receive(p *Packet) {
	l.got++
	if c, ok := p.Payload.(*countedPayload); ok && c.recycled > 0 {
		l.stale++
	}
	if l.log != nil {
		*l.log = append(*l.log, "recv "+l.name)
	}
}
func (l *lifeApp) Snoop(*Packet) {}
func (l *lifeApp) Timer(int)     {}

// lifeNet builds n nodes at x = pos[i] joined by perfect directed links,
// each node running a lifeApp; when log is non-nil every app notes its
// receptions there.
func lifeNet(t *testing.T, pos []float64, links [][2]NodeID, queueCap int, log *[]string) (*Network, []*lifeApp) {
	t.Helper()
	topo := NewTopology(len(pos))
	topo.Pos = make([]Point, len(pos))
	for i, x := range pos {
		topo.Pos[i] = Point{X: x}
	}
	for _, l := range links {
		topo.SetQuality(l[0], l[1], 1)
	}
	p := DefaultParams()
	p.QueueCap = queueCap
	net := NewNetwork(NewSimulator(3), topo, metrics.NewCounters(), p)
	apps := make([]*lifeApp, len(pos))
	for i := range apps {
		apps[i] = &lifeApp{name: string(rune('0' + i)), log: log}
		net.Attach(NodeID(i), apps[i])
	}
	net.Start()
	return net, apps
}

// logDone is a completion that notes its verdict in the log.
func logDone(log *[]string) doneFunc {
	return func(ok bool) { *log = append(*log, map[bool]string{true: "done ok", false: "done fail"}[ok]) }
}

// sendCounted sends (or broadcasts, for dst Broadcast) a counted
// payload from a the way a protocol layer does: the sender's reference
// is held across the call and dropped after it.
func sendCounted(a *NodeAPI, dst NodeID, log *[]string, done interface{ SendDone(bool) }) *countedPayload {
	c := &countedPayload{log: log}
	Hold(c)
	p := &Packet{Class: metrics.Data, Dst: dst, Size: 20, Payload: c}
	if dst == Broadcast {
		a.Broadcast(p)
	} else {
		a.Send(p, done)
	}
	Release(c)
	return c
}

// TestRecycledPayloadLifetime holds netsim's half of the payload rule
// (DESIGN.md §12): a recycled payload is recycled exactly once, and only
// after the job that sent it is done and its last delivery has returned —
// whatever path the frame takes through the send queue.
func TestRecycledPayloadLifetime(t *testing.T) {
	line := [][2]NodeID{{0, 1}} // 0 → 1 with no way back: no ack ever
	star := [][2]NodeID{{0, 1}, {0, 2}}

	t.Run("unicast retried to MaxAttempts", func(t *testing.T) {
		var log []string
		net, _ := lifeNet(t, []float64{0, 1}, line, 32, &log)
		c := sendCounted(&net.api[0], 1, &log, logDone(&log))
		net.Sim.Run(Minute)
		// Five attempts are heard and retried; the sixth fails the job
		// before its frame lands, so the payload outlives the verdict.
		want := []string{"recv 1", "recv 1", "recv 1", "recv 1", "recv 1", "done fail", "recv 1", "recycle"}
		if !slices.Equal(log, want) || c.recycled != 1 {
			t.Fatalf("log %v (recycled %d), want %v", log, c.recycled, want)
		}
	})

	t.Run("broadcast", func(t *testing.T) {
		var log []string
		net, apps := lifeNet(t, []float64{0, 1, 2}, star, 32, &log)
		c := sendCounted(&net.api[0], Broadcast, &log, nil)
		net.Sim.Run(Minute)
		if want := []string{"recv 1", "recv 2", "recycle"}; !slices.Equal(log, want) || c.recycled != 1 {
			t.Fatalf("log %v (recycled %d), want %v", log, c.recycled, want)
		}
		if apps[1].stale+apps[2].stale != 0 {
			t.Fatal("a receiver saw the payload after it was recycled")
		}
	})

	t.Run("QueueCap drop", func(t *testing.T) {
		var log []string
		net, apps := lifeNet(t, []float64{0, 1}, line, 4, &log)
		a := &net.api[0]
		for i := 0; i < 4; i++ {
			a.Send(&Packet{Class: metrics.Data, Dst: 1, Size: 20}, nil)
		}
		c := sendCounted(a, 1, &log, logDone(&log))
		if want := []string{"done fail", "recycle"}; !slices.Equal(log, want) || c.recycled != 1 {
			t.Fatalf("dropped at the queue: log %v (recycled %d), want %v", log, c.recycled, want)
		}
		net.Sim.Run(Minute)
		if c.recycled != 1 || apps[1].stale != 0 {
			t.Fatalf("after the run: recycled %d, %d stale receptions", c.recycled, apps[1].stale)
		}
	})

	// core's data hop falls back from routing rule 3 to 5 to 6 by
	// re-sending the same payload from its completion, holding the
	// sender's reference until its last verdict.
	t.Run("completion re-sends the payload", func(t *testing.T) {
		var log []string
		net, _ := lifeNet(t, []float64{0, 1}, line, 32, &log)
		a := &net.api[0]
		c := &countedPayload{log: &log}
		p := &Packet{Class: metrics.Data, Dst: 1, Size: 20, Payload: c}
		sends := 1
		var fallback doneFunc
		fallback = func(ok bool) {
			logDone(&log)(ok)
			if !ok && sends < 3 {
				sends++
				a.Send(p, fallback)
				return
			}
			Release(c)
		}
		Hold(c)
		a.Send(p, fallback)
		net.Sim.Run(Minute)
		var recvs, dones int
		for _, e := range log {
			switch e {
			case "recv 1":
				recvs++
			case "done fail":
				dones++
			}
		}
		n := len(log)
		if recvs != 3*DefaultParams().MaxAttempts || dones != 3 || c.recycled != 1 ||
			n < 3 || !slices.Equal(log[n-3:], []string{"done fail", "recv 1", "recycle"}) {
			t.Fatalf("log %v (recycled %d): want 18 receptions, 3 verdicts, then the last frame, then one recycle", log, c.recycled)
		}
	})

	t.Run("Restart drain", func(t *testing.T) {
		var log []string
		net, apps := lifeNet(t, []float64{0, 1}, line, 32, &log)
		net.OnPurge = func(id NodeID, p *Packet) {
			if p.Payload.(*countedPayload).recycled == 0 {
				log = append(log, "purge")
			}
		}
		var cs []*countedPayload
		for i := 0; i < 3; i++ {
			cs = append(cs, sendCounted(&net.api[0], 1, &log, logDone(&log)))
		}
		net.Kill(0)
		net.Restart(0)
		// The drain purges every slot, then drops the slots' references;
		// a rebooted mote's completions never run.
		if want := []string{"purge", "purge", "purge", "recycle", "recycle", "recycle"}; !slices.Equal(log, want) {
			t.Fatalf("log %v, want %v", log, want)
		}
		net.Sim.Run(Minute)
		for i, c := range cs {
			if c.recycled != 1 {
				t.Fatalf("payload %d recycled %d times", i, c.recycled)
			}
		}
		if apps[1].got != 0 {
			t.Fatalf("node 1 received %d drained frames", apps[1].got)
		}
	})

	t.Run("Kill mid-air", func(t *testing.T) {
		var log []string
		net, apps := lifeNet(t, []float64{0, 1, 2}, star, 32, &log)
		c := sendCounted(&net.api[0], Broadcast, &log, nil)
		for net.Counters.Snapshot().Data == 0 {
			net.Sim.Step()
		}
		net.Kill(1) // the frame is on the air: node 1 misses it
		net.Sim.Run(Minute)
		if want := []string{"recv 2", "recycle"}; !slices.Equal(log, want) || c.recycled != 1 {
			t.Fatalf("log %v (recycled %d), want %v", log, c.recycled, want)
		}
		if apps[1].got != 0 {
			t.Fatal("a dead node received the frame")
		}
	})

	t.Run("dead-node drain", func(t *testing.T) {
		var log []string
		net, apps := lifeNet(t, []float64{0, 1}, line, 32, &log)
		var cs []*countedPayload
		for i := 0; i < 3; i++ {
			cs = append(cs, sendCounted(&net.api[0], 1, &log, logDone(&log)))
		}
		net.Kill(0) // the next MAC step drains the queue, completions included
		net.Sim.Run(Minute)
		want := []string{"done fail", "recycle", "done fail", "recycle", "done fail", "recycle"}
		if !slices.Equal(log, want) || apps[1].got != 0 {
			t.Fatalf("log %v, %d receptions; want %v and none", log, apps[1].got, want)
		}
		for i, c := range cs {
			if c.recycled != 1 {
				t.Fatalf("payload %d recycled %d times", i, c.recycled)
			}
		}
	})
}
