package netsim

import (
	"testing"

	"scoop/internal/metrics"
)

// tickerApp arms a periodic timer on Init and counts fires and inits.
type tickerApp struct {
	api    *NodeAPI
	inits  int
	ticks  int
	period Time
}

func (a *tickerApp) Init(api *NodeAPI) {
	a.api = api
	a.inits++
	api.SetTimer(1, a.period)
}
func (a *tickerApp) Receive(*Packet) {}
func (a *tickerApp) Snoop(*Packet)   {}
func (a *tickerApp) Timer(id int) {
	a.ticks++
	a.api.SetTimer(1, a.period)
}

// Kill stops a node's timers for good; Restart re-runs Init so the
// timer loop (and everything an app arms there) resumes.
func TestRestartResumesTimers(t *testing.T) {
	topo := NewTopology(2)
	topo.Pos = make([]Point, 2)
	sim := NewSimulator(1)
	net := NewNetwork(sim, topo, metrics.NewCounters(), DefaultParams())
	app := &tickerApp{period: Second}
	net.Attach(1, app)
	net.Start()

	sim.Run(5 * Second)
	if app.ticks == 0 {
		t.Fatal("timer never fired")
	}
	net.Kill(1)
	atKill := app.ticks
	sim.Run(sim.Now() + 5*Second)
	if app.ticks != atKill {
		t.Fatalf("dead node ticked %d times", app.ticks-atKill)
	}
	// Revive alone must NOT resurrect the timer loop: the pending
	// fire was swallowed while dead.
	net.Revive(1)
	sim.Run(sim.Now() + 3*Second)
	if app.ticks != atKill {
		t.Fatalf("revive alone restarted timers (%d extra ticks)", app.ticks-atKill)
	}
	net.Kill(1)
	net.Restart(1)
	if app.inits != 2 {
		t.Fatalf("inits = %d, want 2", app.inits)
	}
	before := app.ticks
	sim.Run(sim.Now() + 5*Second)
	if app.ticks <= before {
		t.Fatal("restart did not resume the timer loop")
	}
}

// Restart drains the send queue: jobs queued before death must not
// transmit after the reboot.
func TestRestartDrainsSendQueue(t *testing.T) {
	topo := NewTopology(2)
	topo.Pos = make([]Point, 2)
	topo.SetQuality(0, 1, 1)
	topo.SetQuality(1, 0, 1)
	sim := NewSimulator(2)
	ctr := metrics.NewCounters()
	net := NewNetwork(sim, topo, ctr, DefaultParams())
	app := &tickerApp{period: Minute}
	net.Attach(0, app)
	net.Attach(1, &tickerApp{period: Minute})
	net.Start()

	for i := 0; i < 5; i++ {
		app.api.Send(&Packet{Class: metrics.Data, Dst: 1, Origin: 0, Size: 20}, nil)
	}
	net.Kill(0)
	net.Restart(0)
	sent := ctr.Sent(metrics.Data)
	sim.Run(sim.Now() + 10*Second)
	if got := ctr.Sent(metrics.Data); got != sent {
		t.Fatalf("stale queued frames transmitted after restart: %d", got-sent)
	}
}
