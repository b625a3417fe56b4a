package experiments

import (
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// Fig12Series is one carrier's variability curves for throughput, MCS and
// MIMO layers across dyadic time scales.
type Fig12Series struct {
	Operator string
	// Tput, MCS, MIMO are V(t) curves from 0.5 ms to ~2 s.
	Tput, MCS, MIMO []analysis.ScalePoint
	// Annotations: mean ± std of each curve (the Fig. 12 labels).
	TputMean, TputStd float64
	MCSMean, MCSStd   float64
	MIMOMean, MIMOStd float64
	// Stabilization is where the throughput curve flattens (the paper
	// observes ≈ 0.2–0.5 s).
	Stabilization time.Duration
}

// fig12Carriers are the four channels the figure shows.
var fig12Carriers = []string{"O_Sp100", "O_Sp90", "V_Sp", "V_It"}

// Fig12 reproduces the multi-scale variability figure. Like Fig01 it
// keeps long sessions even under Quick: the curve's 2 s scale needs many
// blocks per session, and short windows are congestion-episode lottery.
// A captured trace reproduces the per-slot series bit for bit
// (TestScanSeriesMatchesDirect).
func Fig12(o Options) ([]Fig12Series, error) {
	maxK := 12 // 2^12 × 0.5 ms ≈ 2 s
	d := 20 * time.Second
	if o.Quick {
		d = 12 * time.Second
	}
	var out []Fig12Series
	for i, acr := range fig12Carriers {
		_, res, err := measure(acr, d, net5g.Demand{DL: true}, o.seed()+int64(i)*43)
		if err != nil {
			return nil, err
		}
		s := Fig12Series{Operator: acr}
		s.Tput = analysis.Curve(res.DLThroughputProcess(), res.SlotDuration, maxK)
		s.MCS = analysis.Curve(res.FilterDL(res.MCS), res.SlotDuration, maxK)
		s.MIMO = analysis.Curve(res.FilterDL(res.Rank), res.SlotDuration, maxK)
		s.TputMean, s.TputStd = analysis.CurveStats(s.Tput)
		s.MCSMean, s.MCSStd = analysis.CurveStats(s.MCS)
		s.MIMOMean, s.MIMOStd = analysis.CurveStats(s.MIMO)
		if d, ok := analysis.StabilizationScale(s.Tput, 0.25); ok {
			s.Stabilization = d
		}
		out = append(out, s)
	}
	return out, nil
}

// Fig13Result is the 60 ms time-series deep dive for Vodafone Spain.
type Fig13Result struct {
	Operator string
	// StepSec is the plotting granularity (0.060 s).
	StepSec float64
	// TputMbps, MCS, MIMO, RBs are resampled series over the trace.
	TputMbps, MCS, MIMO, RBs []float64
	// RBVariability and MCSVariability compare how much each parameter
	// contributes to throughput variability (the paper: RB allocation
	// contributes less).
	RBVariability, MCSVariability float64
}

// Fig13 reproduces the 4.4-minute V_Sp time-series figure at 60 ms
// granularity.
func Fig13(o Options) (*Fig13Result, error) {
	dur := 264.0
	if o.Quick {
		dur = 20
	}
	_, res, err := measure("V_Sp", time.Duration(dur*float64(time.Second)), net5g.Demand{DL: true}, o.seed()+47)
	if err != nil {
		return nil, err
	}
	factor := int(0.060 / res.SlotDuration.Seconds()) // 120 slots
	out := &Fig13Result{
		Operator: "V_Sp",
		StepSec:  0.060,
		TputMbps: analysis.Resample(res.ThroughputMbpsSeries(), factor),
		MCS:      analysis.Resample(res.MCS, factor),
		MIMO:     analysis.Resample(res.Rank, factor),
		RBs:      analysis.Resample(res.RBs, factor),
	}
	// Normalized variability (V(t)/mean) lets parameters with different
	// units be compared.
	rbV, err := analysis.Variability(out.RBs, 1)
	if err != nil {
		return nil, err
	}
	mcsV, err := analysis.Variability(out.MCS, 1)
	if err != nil {
		return nil, err
	}
	out.RBVariability = rbV / analysis.Mean(out.RBs)
	out.MCSVariability = mcsV / analysis.Mean(out.MCS)
	return out, nil
}

// Fig14Cell is one (location, mode) measurement of the multi-user
// experiment.
type Fig14Cell struct {
	// Location distinguishes A (45 m) and B (117 m).
	Location   string
	DistanceM  float64
	Sequential bool
	// DLMbps and MeanRBs are the measured aggregates.
	DLMbps  float64
	MeanRBs float64
	// VMCS and VMIMO are the joint channel-variability coordinates;
	// MeanMCS and MeanRank allow scale-free comparison across locations.
	VMCS, VMIMO       float64
	MeanMCS, MeanRank float64
}

// Fig14 reproduces the locations/users experiment: sequential runs at two
// distances, then simultaneous runs sharing the cell. Throughput halves via
// RB competition; channel variability stays put.
func Fig14(o Options) ([]Fig14Cell, error) {
	op, err := operators.ByAcronym("Vzw_US")
	if err != nil {
		return nil, err
	}
	// The paper's Fig. 14 cell averages ≈595 Mbps — about half of
	// Verizon's headline 1.26 Gbps — i.e. a different, weaker spot of the
	// same network: single cell, ordinary transmit power. Model that by
	// dropping the CA SCell and the saturation-grade SINR bias.
	op.Carriers = op.Carriers[:1]
	op.Carriers[0].SINRBiasDB = -4
	op.Carriers[0].ShadowSigmaDB = 2.2
	d := o.sessionSeconds(12)
	scale := int(0.150 / 0.0005) // 150 ms joint-variability scale
	var out []Fig14Cell
	for _, loc := range []struct {
		name string
		dist float64
	}{{"A", 45}, {"B", 117}} {
		for _, seq := range []bool{true, false} {
			sc := operators.Stationary(o.seed() + 53)
			sc.UEDistanceM = loc.dist
			share := 1.0
			if !seq {
				share = 0.5 // two simultaneous UEs split the cell
			}
			avg, res, err := measureOp(op, sc, d, net5g.Demand{DL: true, Share: share})
			if err != nil {
				return nil, err
			}
			var rbs, n float64
			for _, rb := range res.RBs {
				if rb > 0 {
					rbs += rb
					n++
				}
			}
			vm, vl, err := analysis.JointVariability(res.FilterDL(res.MCS), res.FilterDL(res.Rank), scale)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig14Cell{
				Location:   loc.name,
				DistanceM:  loc.dist,
				Sequential: seq,
				DLMbps:     avg.DLMbps,
				MeanRBs:    rbs / n,
				VMCS:       vm,
				VMIMO:      vl,
				MeanMCS:    analysis.Mean(res.FilterDL(res.MCS)),
				MeanRank:   analysis.Mean(res.FilterDL(res.Rank)),
			})
		}
	}
	return out, nil
}
