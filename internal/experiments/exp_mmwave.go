package experiments

import (
	"time"

	"github.com/midband5g/midband/internal/iperf"

	"github.com/midband5g/midband/internal/analysis"
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

// Fig18Series is one (technology, mobility) variability curve.
type Fig18Series struct {
	Tech     string // "midband" or "mmwave"
	Mobility string // "walking" or "driving"
	DLMbps   float64
	Curve    []analysis.ScalePoint
	// OutagePct is the fraction of slots with no service.
	OutagePct float64
}

// Fig18 reproduces the mid-band vs mmWave variability comparison across
// time scales under walking and driving.
func Fig18(o Options) ([]Fig18Series, error) {
	var out []Fig18Series
	for _, tech := range []struct{ name, acr string }{{"midband", midBandAcr}, {"mmwave", mmWaveAcr}} {
		for _, mob := range []string{"walking", "driving"} {
			op, err := operators.ByAcronym(tech.acr)
			if err != nil {
				return nil, err
			}
			// The §7 comparison needs stable statistics across blockage
			// cycles; it keeps 20 s sessions even under Quick options.
			res, err := measureOp(op, mobilityScenario(mob, o.seed()+79), 20*time.Second, net5g.Demand{DL: true})
			if err != nil {
				return nil, err
			}
			outage := 0.0
			for _, s := range res.SINRdB {
				if s < -50 {
					outage++
				}
			}
			out = append(out, Fig18Series{
				Tech:      tech.name,
				Mobility:  mob,
				DLMbps:    res.DLMbps,
				Curve:     analysis.Curve(res.DLThroughputProcess(), res.SlotDuration, 12),
				OutagePct: 100 * outage / float64(len(res.SINRdB)),
			})
		}
	}
	return out, nil
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
func Fig19(o Options) ([]Fig19Point, error) {
	reps := 2
	if o.Quick {
		reps = 1
	}
	play := func(acr, mob string, ladder video.Ladder, ladderName string, seedOff int64) (Fig19Point, error) {
		var nb, sp float64
		for rep := 0; rep < reps; rep++ {
			op, err := operators.ByAcronym(acr)
			if err != nil {
				return Fig19Point{}, err
			}
			cfg, err := op.LinkConfig(mobilityScenario(mob, o.seed()+seedOff+int64(rep)*13))
			if err != nil {
				return Fig19Point{}, err
			}
			link, err := net5g.NewLink(cfg)
			if err != nil {
				return Fig19Point{}, err
			}
			// video.Play never reads RSRQ; skipping it draws no randomness.
			link.SetRSRQNeeded(false)
			for i := 0; i < 2000; i++ {
				link.Step(net5g.Demand{DL: true})
			}
			res, err := video.Play(link, video.SessionConfig{
				Ladder:        ladder,
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
		if acr == mmWaveAcr {
			tech = "mmwave"
		}
		return Fig19Point{
			Tech: tech, Mobility: mob, Ladder: ladderName,
			NormBitrate: nb / float64(reps), StallPct: sp / float64(reps),
		}, nil
	}

	var out []Fig19Point
	// (a) standard ladder, walking, both technologies.
	for _, acr := range []string{midBandAcr, mmWaveAcr} {
		p, err := play(acr, "walking", video.Ladder400, "400Mbps", 83)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	// (b) scaled-up ladder, mmWave walking and driving.
	for _, mob := range []string{"walking", "driving"} {
		p, err := play(mmWaveAcr, mob, video.LadderMmWave, "1.25Gbps", 89)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
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
func Sec7(o Options) ([]Sec7Row, error) {
	relVar := func(res *iperf.Result) (float64, error) {
		series := res.DLThroughputProcess()
		// Fixed 128 ms comparison scale regardless of numerology.
		scale := int(0.128 / res.SlotDuration.Seconds())
		v, err := analysis.Variability(series, scale)
		if err != nil {
			return 0, err
		}
		m := analysis.Mean(series)
		if m == 0 {
			return 0, nil
		}
		return v / m, nil
	}
	var out []Sec7Row
	for _, mob := range []string{"walking", "driving"} {
		mid, err := measureOp(mustOp(midBandAcr), mobilityScenario(mob, o.seed()+97), 20*time.Second, net5g.Demand{DL: true})
		if err != nil {
			return nil, err
		}
		mmw, err := measureOp(mustOp(mmWaveAcr), mobilityScenario(mob, o.seed()+97), 20*time.Second, net5g.Demand{DL: true})
		if err != nil {
			return nil, err
		}
		vMid, err := relVar(mid)
		if err != nil {
			return nil, err
		}
		vMmw, err := relVar(mmw)
		if err != nil {
			return nil, err
		}
		gain := 0.0
		if vMmw > 0 {
			gain = 100 * (1 - vMid/vMmw)
		}
		out = append(out, Sec7Row{
			Mobility:         mob,
			MidBandMbps:      mid.DLMbps,
			MmWaveMbps:       mmw.DLMbps,
			StabilityGainPct: gain,
		})
	}
	return out, nil
}

func mustOp(acr string) operators.Operator {
	op, err := operators.ByAcronym(acr)
	if err != nil {
		panic(err)
	}
	return op
}
