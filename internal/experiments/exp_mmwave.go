package experiments

import (
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/video"
)

// §7 compares the T-Mobile mid-band CA deployment against the mmWave
// profile under walking and driving.
const (
	midBandAcr = "Tmb_US"
	mmWaveAcr  = "Vzw_mmW"
)

func mobilityScenario(mobility string, seed int64) operators.Scenario {
	if mobility == "driving" {
		return operators.Driving(seed)
	}
	return operators.Walking(seed)
}

// sec7Seconds is the §7 session length. The comparison needs stable
// statistics across blockage cycles, so it keeps 20 s sessions even
// under Quick options.
const sec7Seconds = 20

// sec7Session is what a §7 arm reads of one full-buffer DL session.
type sec7Session struct {
	dlMbps  float64
	process []float64 // the PDSCH throughput process (DLThroughputProcess)
	slot    time.Duration
	slots   int
	outage  int // slots with no service
}

// measureSec7 runs a §7 session as one-second iperf windows chained on
// one link, so every slot steps exactly as in a single 20 s run. Only
// what an arm reads outlives a window: two mmWave arms in flight hold
// their throughput processes, not two sets of per-slot series.
func measureSec7(acr, mob string, seed int64) (sec7Session, error) {
	sess, err := core.NewSession(mustOp(acr), mobilityScenario(mob, seed))
	if err != nil {
		return sec7Session{}, err
	}
	var s sec7Session
	dlBits := 0.0 // integer-valued, so the sum is exact in any grouping
	for w := 0; w < sec7Seconds; w++ {
		res := iperf.NewSeries(sess.Link, time.Second)
		if _, err := sess.RunIperf(time.Second, net5g.Demand{DL: true}, nil, res); err != nil {
			return sec7Session{}, err
		}
		for _, b := range res.DLBitsPerSlot {
			dlBits += b
		}
		for _, v := range res.SINRdB {
			if v < -50 {
				s.outage++
			}
		}
		s.process = append(s.process, res.DLThroughputProcess()...)
		s.slot, s.slots = res.SlotDuration, s.slots+len(res.SINRdB)
	}
	// The same expression iperf.Run ends a 20 s session with.
	s.dlMbps = dlBits / (sec7Seconds * time.Second).Seconds() / 1e6
	return s, nil
}

// Fig18Series is one (technology, mobility) variability curve.
type Fig18Series struct {
	Tech     string // "midband" or "mmwave"
	Mobility string // "walking" or "driving"
	DLMbps   float64
	Curve    []analysis.ScalePoint
	// OutagePct is the fraction of slots with no service.
	OutagePct float64
}

// §7 runs every (technology, mobility) pair as an independent arm.
var (
	techs      = []struct{ name, acr string }{{"midband", midBandAcr}, {"mmwave", mmWaveAcr}}
	mobilities = []string{"walking", "driving"}
)

// Fig18 reproduces the mid-band vs mmWave variability comparison across
// time scales under walking and driving.
func Fig18(o Options) ([]Fig18Series, error) { return Fig18Plan(o).Run() }

// Fig18Plan is Fig18 with one arm per (technology, mobility) session.
func Fig18Plan(o Options) Plan[Fig18Series, []Fig18Series] {
	return rowPlan(len(techs)*len(mobilities), func(i int) (Fig18Series, error) {
		tech, mob := techs[i/len(mobilities)], mobilities[i%len(mobilities)]
		s, err := measureSec7(tech.acr, mob, o.seed()+79)
		if err != nil {
			return Fig18Series{}, err
		}
		return Fig18Series{
			Tech:      tech.name,
			Mobility:  mob,
			DLMbps:    s.dlMbps,
			Curve:     analysis.Curve(s.process, s.slot, 12),
			OutagePct: 100 * float64(s.outage) / float64(s.slots),
		}, nil
	})
}

// Fig19Point is one streaming session of the §7 QoE comparison.
type Fig19Point struct {
	Tech        string
	Mobility    string
	Ladder      string // "400Mbps" or "1.25Gbps"
	NormBitrate float64
	StallPct    float64
}

// Fig19 reproduces the QoE comparison: (a) both technologies walking on the
// standard ladder — mmWave gains bitrate but pays in stalls; (b) the
// scaled-up ladder on mmWave only, walking vs driving — driving struggles.
func Fig19(o Options) ([]Fig19Point, error) { return Fig19Plan(o).Run() }

// Fig19Plan is Fig19 with one arm per streaming point.
func Fig19Plan(o Options) Plan[Fig19Point, []Fig19Point] {
	reps := 2
	if o.Quick {
		reps = 1
	}
	// (a) the standard ladder, walking, both technologies; (b) the
	// scaled-up ladder, mmWave walking and driving.
	arms := []struct {
		acr, mob, ladderName string
		ladder               video.Ladder
		seedOff              int64
	}{
		{midBandAcr, "walking", "400Mbps", video.Ladder400, 83},
		{mmWaveAcr, "walking", "400Mbps", video.Ladder400, 83},
		{mmWaveAcr, "walking", "1.25Gbps", video.LadderMmWave, 89},
		{mmWaveAcr, "driving", "1.25Gbps", video.LadderMmWave, 89},
	}
	return rowPlan(len(arms), func(i int) (Fig19Point, error) {
		a := arms[i]
		var nb, sp float64
		for rep := 0; rep < reps; rep++ {
			link, err := newLink(a.acr, mobilityScenario(a.mob, o.seed()+a.seedOff+int64(rep)*13), nil)
			if err != nil {
				return Fig19Point{}, err
			}
			for i := 0; i < 2000; i++ {
				link.Step(net5g.Demand{DL: true})
			}
			res, err := video.Play(link, video.SessionConfig{
				Ladder:        a.ladder,
				ChunkLength:   time.Second, // §7 uses 1 s chunks
				VideoDuration: o.videoDuration(240),
				ABR:           video.NewBOLA(),
			})
			if err != nil {
				return Fig19Point{}, err
			}
			nb += res.AvgNormBitrate
			sp += res.StallPct()
		}
		tech := "midband"
		if a.acr == mmWaveAcr {
			tech = "mmwave"
		}
		return Fig19Point{
			Tech: tech, Mobility: a.mob, Ladder: a.ladderName,
			NormBitrate: nb / float64(reps), StallPct: sp / float64(reps),
		}, nil
	})
}

// Sec7Aggregate reproduces the §7 headline numbers: aggregate throughput of
// mid-band vs mmWave under walking and driving, plus the relative stability
// (the paper: mid-band is ≈41–42% more stable).
type Sec7Row struct {
	Mobility    string
	MidBandMbps float64
	MmWaveMbps  float64
	// StabilityGainPct is how much lower mid-band's slot-scale relative
	// variability is compared to mmWave (positive = mid-band steadier).
	StabilityGainPct float64
}

// Sec7 computes the aggregate mobility comparison.
func Sec7(o Options) ([]Sec7Row, error) { return Sec7Plan(o).Run() }

// sec7Arm is one §7 session reduced to what the aggregate reads.
type sec7Arm struct{ dlMbps, relVar float64 }

// Sec7Plan is Sec7 with one arm per (mobility, technology) session.
func Sec7Plan(o Options) Plan[sec7Arm, []Sec7Row] {
	arm := func(i int) (sec7Arm, error) {
		mob, tech := mobilities[i/len(techs)], techs[i%len(techs)]
		s, err := measureSec7(tech.acr, mob, o.seed()+97)
		if err != nil {
			return sec7Arm{}, err
		}
		v, err := relVar(s.process, s.slot)
		return sec7Arm{dlMbps: s.dlMbps, relVar: v}, err
	}
	reduce := func(arms []sec7Arm) ([]Sec7Row, error) {
		var out []Sec7Row
		for m, mob := range mobilities {
			mid, mmw := arms[m*len(techs)], arms[m*len(techs)+1]
			gain := 0.0
			if mmw.relVar > 0 {
				gain = 100 * (1 - mid.relVar/mmw.relVar)
			}
			out = append(out, Sec7Row{
				Mobility:         mob,
				MidBandMbps:      mid.dlMbps,
				MmWaveMbps:       mmw.dlMbps,
				StabilityGainPct: gain,
			})
		}
		return out, nil
	}
	return Plan[sec7Arm, []Sec7Row]{Arms: len(mobilities) * len(techs), Arm: arm, Reduce: reduce}
}

// relVar is a throughput series' variability at a fixed 128 ms scale,
// regardless of numerology, relative to its mean.
func relVar(series []float64, slot time.Duration) (float64, error) {
	v, err := analysis.Variability(series, int(0.128/slot.Seconds()))
	if err != nil {
		return 0, err
	}
	m := analysis.Mean(series)
	if m == 0 {
		return 0, nil
	}
	return v / m, nil
}

func mustOp(acr string) operators.Operator {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		panic(err)
	}
	return op
}
