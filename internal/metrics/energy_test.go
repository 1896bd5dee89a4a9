package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestByteAccounting(t *testing.T) {
	m := NewCounters()
	m.CountSend(1, Data, 30)
	m.CountSend(1, Data, 20)
	m.CountReceive(2, Data, 30)
	if m.SentBytes() != 50 || m.SentBytesBy(1) != 50 || m.SentBytesBy(2) != 0 {
		t.Fatalf("sent bytes: total=%d by1=%d", m.SentBytes(), m.SentBytesBy(1))
	}
	if m.ReceivedBytes() != 30 || m.ReceivedBytesBy(2) != 30 {
		t.Fatal("received bytes wrong")
	}
}

func TestNodeEnergyComposition(t *testing.T) {
	e := DefaultEnergyModel()
	m := NewCounters()
	m.CountSend(1, Data, 100)
	m.CountReceive(1, Data, 50)
	const secs = 1000.0
	got := e.NodeEnergy(m, 1, secs, false)
	want := 100*e.TxPerByte + 50*e.RxPerByte + secs*e.IdleDutyCycle*e.IdlePerSec
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("energy = %g, want %g", got, want)
	}
	// The root listens continuously: strictly more idle cost.
	root := e.NodeEnergy(m, 1, secs, true)
	if root <= got {
		t.Fatal("always-on root not more expensive than duty-cycled node")
	}
}

func TestLifetimeDays(t *testing.T) {
	e := DefaultEnergyModel()
	// Constant 1 W drain: lifetime = capacity seconds.
	days := e.LifetimeDays(3600, 3600) // 1 W for an hour
	want := e.BatteryJ / 86400
	if math.Abs(days-want) > 1e-9 {
		t.Fatalf("lifetime = %f days, want %f", days, want)
	}
	if e.LifetimeDays(0, 100) != 0 || e.LifetimeDays(1, 0) != 0 {
		t.Fatal("degenerate inputs not zero")
	}
}

func TestEnergyReport(t *testing.T) {
	e := DefaultEnergyModel()
	m := NewCounters()
	// Root receives a lot; node 2 transmits a lot; node 1 idles.
	m.CountReceive(0, Data, 10000)
	m.CountSend(2, Data, 8000)
	r := e.Energy(m, 3, 2400)
	if r.RootJ <= r.AvgNodeJ {
		t.Fatal("always-on receiving root should dominate")
	}
	if r.MostLoadedNode != 2 {
		t.Fatalf("most loaded = %d, want 2", r.MostLoadedNode)
	}
	if r.AvgNodeDays <= 0 || r.RootDays <= 0 {
		t.Fatal("non-positive lifetimes")
	}
	if r.RootDays >= r.AvgNodeDays {
		t.Fatal("root should run out first")
	}
	if r.CommsFraction <= 0 || r.CommsFraction >= 1 {
		t.Fatalf("comms fraction = %f", r.CommsFraction)
	}
	if !strings.Contains(r.String(), "root") {
		t.Fatal("report string malformed")
	}
	if r.TotalNetworkJ < r.RootJ {
		t.Fatal("total below root alone")
	}
}
