package exp

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"scoop/internal/dynamics"
	"scoop/internal/netsim"
	"scoop/internal/policy"
)

// countingApp forwards every callback to the protocol instance it
// wraps and counts them; the count is shared across region goroutines.
type countingApp struct {
	app netsim.App
	n   *atomic.Int64
}

func (c countingApp) Init(api *netsim.NodeAPI) { c.n.Add(1); c.app.Init(api) }
func (c countingApp) Receive(p *netsim.Packet) { c.n.Add(1); c.app.Receive(p) }
func (c countingApp) Snoop(p *netsim.Packet)   { c.n.Add(1); c.app.Snoop(p) }
func (c countingApp) Timer(id int)             { c.n.Add(1); c.app.Timer(id) }

// TestTrialSlicesMatchRun holds the seam a caller steps a run through to
// the run Run makes: a trial built with a pass-through wrapper on every
// node and driven in 360 slices finishes with trial 0's result, on the
// serial engine and on four regions, for a plain cell, a faulted
// aggregate cell with retries, and a churn-and-drift cell.
func TestTrialSlicesMatchRun(t *testing.T) {
	const slices = 360
	base := func() Config {
		cfg := Default()
		cfg.N = 20
		cfg.Duration = 6 * netsim.Minute
		cfg.Warmup = 2 * netsim.Minute
		cfg.Trials = 1
		return cfg
	}
	faults := base()
	faults.Faults = "campaign"
	faults.LinkLoss = 0.3
	faults.QueryDeadline, faults.QueryRetryMax = 12*netsim.Second, 3
	faults.AggRatio, faults.QueryWidth, faults.AggErrBudget = 0.5, 0.4, 0.25
	dyn := base()
	s := dynamics.Standard(dyn.N, dyn.Warmup, dyn.Duration, 0.25, 0.5, 7)
	dyn.Dynamics = &s
	dyn.ReindexInterval = 2 * netsim.Minute

	for _, sc := range []struct {
		name string
		cfg  Config
	}{{"scoop", base()}, {"faults-retry-agg", faults}, {"churn-drift", dyn}} {
		for _, k := range []int{0, 4} {
			cfg := sc.cfg
			cfg.Regions = k
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := res.PerTrial[0]

			var calls atomic.Int64
			tr, err := NewTrial(cfg, 0, func(_ netsim.NodeID, app netsim.App) netsim.App {
				return countingApp{app: app, n: &calls}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= slices; i++ {
				tr.Run(cfg.Duration * netsim.Time(i) / slices)
			}
			got, err := tr.Finish()
			if err != nil {
				t.Fatal(err)
			}

			label := fmt.Sprintf("%s/regions%d", sc.name, k)
			if calls.Load() == 0 {
				t.Errorf("%s: the wrapper saw no callbacks", label)
			}
			// The one wall-clock counter differs between any two runs.
			got.Stats.ReindexWallNanos, want.Stats.ReindexWallNanos = 0, 0
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"Stats", got.Stats, want.Stats},
				{"Breakdown", got.Breakdown, want.Breakdown},
				{"Agg", got.Agg, want.Agg},
				{"Energy", got.Energy, want.Energy},
				{"RootSent", got.RootSent, want.RootSent},
				{"RootRecv", got.RootRecv, want.RootRecv},
				{"Timeline", got.Timeline, want.Timeline},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s: %s stepped %+v, Run %+v", label, f.name, f.got, f.want)
				}
			}
		}
	}
}

// NewTrial turns away what Run would: an invalid configuration, and the
// analytical HASH policy, which has no simulation to step.
func TestNewTrialRejects(t *testing.T) {
	bad := Default()
	bad.Topology = "torus"
	if _, err := NewTrial(bad, 0, nil); err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Errorf("invalid config: err = %v", err)
	}
	hash := Default()
	hash.Policy = policy.Hash
	if _, err := NewTrial(hash, 0, nil); err == nil || !strings.Contains(err.Error(), "hashsim") {
		t.Errorf("analytical hash: err = %v", err)
	}
}
