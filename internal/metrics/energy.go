package metrics

// EnergyModel converts radio activity into Joules, using the hardware
// numbers from the paper's §2.1: radio around 700 nJ per transmitted
// bit (two orders of magnitude above Flash), reception of comparable
// order, and — dominating everything on nodes that must keep their
// radio powered — idle listening. The paper's energy discussion ("up
// to 90% of the energy consumption … is due to communication", "the
// radio must be on at all times" for the root) follows directly from
// these constants.
type EnergyModel struct {
	TxPerByte  float64 // J per transmitted byte
	RxPerByte  float64 // J per received byte
	IdlePerSec float64 // J per second of idle listening (radio on)
	// IdleDutyCycle is the fraction of time a non-root node keeps its
	// radio on (low-power listening); the root listens continuously.
	IdleDutyCycle float64
	// BatteryJ is the usable battery capacity (2×AA ≈ 20 kJ usable).
	BatteryJ float64
}

// DefaultEnergyModel returns Mica2-era constants: 700 nJ/bit radio
// (paper §2.1), reception at ~60% of transmit cost, ~15 mW listening
// (the paper's "current generation 802.15.4 radios consume about 15 mJ
// of power per second"), 10% duty-cycled listening on regular nodes.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		TxPerByte:     700e-9 * 8,
		RxPerByte:     420e-9 * 8,
		IdlePerSec:    15e-3,
		IdleDutyCycle: 0.01,
		BatteryJ:      20e3,
	}
}

// NodeEnergy reports node id's energy use over a run of the given
// duration (seconds): transmit + receive + idle listening.
func (e EnergyModel) NodeEnergy(m *Counters, id uint16, seconds float64, isRoot bool) float64 {
	duty := e.IdleDutyCycle
	if isRoot {
		duty = 1 // the root's radio is always on (paper §6)
	}
	return float64(m.SentBytesBy(id))*e.TxPerByte +
		float64(m.ReceivedBytesBy(id)+m.SnoopedBytesBy(id))*e.RxPerByte +
		seconds*duty*e.IdlePerSec
}

// LifetimeDays extrapolates how long the battery lasts if the run's
// average power draw continued indefinitely.
func (e EnergyModel) LifetimeDays(energyJ, seconds float64) float64 {
	if energyJ <= 0 || seconds <= 0 {
		return 0
	}
	watts := energyJ / seconds
	return e.BatteryJ / watts / 86400
}

// EnergyReport summarises a run's energy picture: the mean non-root
// node and the root, both in Joules over the run and extrapolated
// battery-lifetime days — the quantities behind the paper's "one
// month vs three months, root every two weeks" comparison.
type EnergyReport struct {
	AvgNodeJ       float64
	RootJ          float64
	AvgNodeDays    float64
	RootDays       float64
	CommsFraction  float64 // share of non-idle (radio tx+rx) energy on the avg node
	TotalNetworkJ  float64
	MostLoadedNode uint16
	MostLoadedJ    float64
}

// Energy computes the report for an n-node run of the given duration
// in virtual seconds, with node 0 as root.
func (e EnergyModel) Energy(m *Counters, n int, seconds float64) EnergyReport {
	var r EnergyReport
	var sum float64
	for id := 1; id < n; id++ {
		j := e.NodeEnergy(m, uint16(id), seconds, false)
		sum += j
		if j > r.MostLoadedJ {
			r.MostLoadedJ, r.MostLoadedNode = j, uint16(id)
		}
	}
	r.AvgNodeJ = sum / float64(n-1)
	r.RootJ = e.NodeEnergy(m, 0, seconds, true)
	r.TotalNetworkJ = sum + r.RootJ
	r.AvgNodeDays = e.LifetimeDays(r.AvgNodeJ, seconds)
	r.RootDays = e.LifetimeDays(r.RootJ, seconds)
	comms := float64(m.SentBytes()-m.SentBytesBy(0))*e.TxPerByte +
		float64(m.ReceivedBytes()-m.ReceivedBytesBy(0))*e.RxPerByte +
		float64(m.SnoopedBytes()-m.SnoopedBytesBy(0))*e.RxPerByte
	idle := seconds * e.IdlePerSec * e.IdleDutyCycle * float64(n-1)
	if comms+idle > 0 {
		r.CommsFraction = comms / (comms + idle)
	}
	return r
}
