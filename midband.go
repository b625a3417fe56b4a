// Package midband is a slot-level 5G NR mid-band network simulator and
// measurement toolkit reproducing "Unveiling the 5G Mid-Band Landscape:
// From Network Deployment to Performance and Application QoE" (ACM SIGCOMM
// 2024).
//
// It bundles:
//
//   - profiles of the seven commercial operators the paper measured
//     (Tables 2–3), including TDD frames, CQI→MCS configuration, carrier
//     aggregation, NSA uplink policies and deployment-quality calibration;
//   - a slot-accurate radio simulator (channel, AMC with outer-loop link
//     adaptation, MIMO rank adaptation, HARQ, carrier aggregation, LTE
//     anchor);
//   - the measurement pipeline of the paper: XCAL-style slot KPI traces,
//     bulk-transfer (iPerf-like) drivers, user-plane latency probes;
//   - the paper's analyses: the scaled variability metric V(t), CDFs and
//     utilization shares;
//   - a DASH video streaming stack with BOLA, throughput-based and dynamic
//     ABR algorithms and QoE accounting.
//
// The quickest way in:
//
//	op, _ := midband.OperatorByAcronym("V_Sp")
//	link, _ := midband.NewLink(op, midband.Stationary(42))
//	res, _ := midband.RunIperf(link, 10*time.Second)
//	fmt.Printf("downlink: %.0f Mbps\n", res.DLMbps)
package midband

import (
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/video"
)

// Operator is a commercial deployment profile (Tables 2 and 3 of the
// paper): carriers, TDD frames, MCS configuration, NSA uplink policy and
// deployment-quality calibration.
type Operator = operators.Operator

// Carrier is one component carrier of an operator.
type Carrier = operators.Carrier

// Scenario describes how an experiment exercises the link (mobility,
// resource share, seed).
type Scenario = operators.Scenario

// Link is an end-to-end NSA 5G link: NR component carriers plus the LTE
// anchor.
type Link = net5g.Link

// Demand is offered load for a link step.
type Demand = net5g.Demand

// IperfResult is the outcome of a bulk-transfer session: the session
// averages and the slot-level KPI series (throughput, MCS, rank, RBs,
// CQI, SINR).
type IperfResult struct {
	*iperf.Result
	*iperf.Series
	SlotDuration time.Duration // the series' sampling period, which both carry
}

// VideoSession configures a DASH streaming session.
type VideoSession = video.SessionConfig

// VideoResult carries the QoE metrics of a streaming session.
type VideoResult = video.Result

// Ladder is a video quality ladder in Mbps.
type Ladder = video.Ladder

// ABR is a bitrate adaptation algorithm.
type ABR = video.ABR

// Session couples an operator, a scenario and a live link, and runs the
// paper's measurement methodology (warm-up, signaling capture, workloads).
type Session = core.Session

// CampaignStats aggregates a measurement campaign (Table 1).
type CampaignStats = core.CampaignStats

// VariabilityPoint is one (time scale, V(t)) point of a variability curve.
type VariabilityPoint = analysis.ScalePoint

// Paper video ladders (§6 and §7).
var (
	Ladder400    = video.Ladder400
	LadderMmWave = video.LadderMmWave
)

// Operators returns every deployment profile in the registry, including the
// §7 mmWave comparison profile.
func Operators() []Operator { return operators.All() }

// MidBandOperators returns the eleven mid-band deployments of Tables 2–3.
func MidBandOperators() []Operator { return operators.MidBand() }

// OperatorByAcronym finds a profile by the paper's short name (e.g. "V_Sp",
// "O_Sp100", "Tmb_US").
func OperatorByAcronym(acr string) (Operator, error) { return operators.ByAcronym(acr) }

// Stationary, Walking and Driving build the paper's mobility scenarios.
func Stationary(seed int64) Scenario { return operators.Stationary(seed) }

// Walking moves the UE at pedestrian speed.
func Walking(seed int64) Scenario { return operators.Walking(seed) }

// Driving moves the UE at urban driving speed.
func Driving(seed int64) Scenario { return operators.Driving(seed) }

// NewLink builds the operator's NSA link for a scenario.
func NewLink(op Operator, sc Scenario) (*Link, error) {
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return nil, err
	}
	return net5g.NewLink(cfg)
}

// NewSession builds a measurement session (link + methodology).
func NewSession(op Operator, sc Scenario) (*Session, error) {
	return core.NewSession(op, sc)
}

// RunIperf saturates the link's downlink and uplink for the given duration
// and returns the measured result with its slot-level KPI series.
func RunIperf(link *Link, d time.Duration) (*IperfResult, error) {
	series := iperf.NewSeries(link, d)
	res, err := iperf.Run(link, iperf.Config{Duration: d, Observers: []iperf.Observer{series}})
	if err != nil {
		return nil, err
	}
	return &IperfResult{Result: res, Series: series, SlotDuration: res.SlotDuration}, nil
}

// StreamVideo plays a DASH session over the link and leaves the link at
// the last chunk's arrival; the buffer plays out without stepping it.
func StreamVideo(link *Link, cfg VideoSession) (*VideoResult, error) {
	return video.Play(link, cfg)
}

// NewBOLA returns the BOLA ABR algorithm with dash.js defaults.
func NewBOLA() ABR { return video.NewBOLA() }

// NewThroughputABR returns the rate-based ABR algorithm.
func NewThroughputABR() ABR { return &video.ThroughputABR{} }

// NewDynamicABR returns the hybrid BOLA/throughput controller.
func NewDynamicABR() ABR { return video.NewDynamic() }

// RunCampaign measures every mid-band operator once and aggregates the
// dataset statistics (Table 1). TraceDir, when non-empty, receives one
// columnar .xcol trace per operator (readable with cmd/xcaldump, which
// also converts it to the row .xcal container).
func RunCampaign(sessionDuration time.Duration, traceDir string, seed int64) (*CampaignStats, error) {
	return core.RunCampaign(core.CampaignConfig{
		SessionDuration: sessionDuration,
		TraceDir:        traceDir,
		Seed:            seed,
	})
}

// Variability computes the paper's scaled variability metric V(t) (eq. 1)
// over a series sampled at fixed intervals, at a time scale of `scale`
// samples.
func Variability(series []float64, scale int) (float64, error) {
	return analysis.Variability(series, scale)
}

// VariabilityCurve computes V(t) across dyadic time scales t = 2^k·τ,
// k = 0..maxK (the x-axis of the paper's Figure 12).
func VariabilityCurve(series []float64, tau time.Duration, maxK int) []VariabilityPoint {
	return analysis.Curve(series, tau, maxK)
}

// Multi-UE cell API: the substrate behind the paper's §5.2 multi-user
// experiment, exposed for scheduler studies.

// Cell simulates one carrier shared by several UEs under a scheduling
// policy.
type Cell = gnb.Cell

// CellSlot is one slot's outcome across the cell's UEs.
type CellSlot = gnb.CellSlot

// SchedulerPolicy selects how a cell splits resource blocks.
type SchedulerPolicy = gnb.SchedulerPolicy

// Scheduler policies.
const (
	SchedulerEqualShare       = gnb.SchedulerEqualShare
	SchedulerProportionalFair = gnb.SchedulerProportionalFair
	SchedulerMaxRate          = gnb.SchedulerMaxRate
	SchedulerRoundRobin       = gnb.SchedulerRoundRobin
)

// UEPosition is a UE location in the cell's coordinate system (meters;
// gNB sites sit on the X axis).
type UEPosition = channel.Point

// NewCell builds a multi-UE cell on the operator's primary carrier with
// one UE per position, using the legacy share model (per-slot fractional
// RB splits, no HARQ, full-buffer UEs). For the full contention model
// use NewContentionCell.
func NewCell(op Operator, sc Scenario, policy SchedulerPolicy, ues []UEPosition) (*Cell, error) {
	cc, err := op.CarrierConfig(0, sc)
	if err != nil {
		return nil, err
	}
	return gnb.NewCell(gnb.CellConfig{
		Carrier: cc,
		UEs:     ues,
		Policy:  policy,
		Seed:    sc.Seed,
	})
}

// NewContentionCell builds a multi-UE cell with the full shared-resource
// model: per-UE HARQ processes and RLC-style buffers, integer-RB grants
// across the contending UE set, and load-coupled interference (the
// cell's own RB utilization replaces the statistical neighbor load).
// See docs/SIMULATION-MODEL.md for how the pieces map to the paper.
func NewContentionCell(op Operator, sc Scenario, policy SchedulerPolicy, ues []UEPosition) (*Cell, error) {
	cc, err := op.CarrierConfig(0, sc)
	if err != nil {
		return nil, err
	}
	return gnb.NewCell(gnb.CellConfig{
		Carrier: cc,
		UEs:     ues,
		Policy:  policy,
		Model:   gnb.CellModelContention,
		Seed:    sc.Seed,
	})
}

// UEPositions derives n deterministic UE positions around the serving
// site from a seed; position i is independent of n, so growing the
// population never moves existing UEs.
func UEPositions(seed int64, n int) []UEPosition {
	return core.UEPositions(seed, n)
}
