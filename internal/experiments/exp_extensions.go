package experiments

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/tdd"
	"github.com/midband5g/midband/internal/transport"
	"github.com/midband5g/midband/internal/video"
)

// This file holds the extension experiments beyond the paper's figures:
// the NSA-vs-SA comparison the paper sets aside (§3.1 notes T-Mobile runs
// both), the TDD frame-structure sweep it defers to future work (§3.1),
// and the extended ABR comparison including the two algorithms footnote 6
// mentions without results (L2A, LoLP).

// ExtNSAvsSARow compares T-Mobile's two deployment modes.
type ExtNSAvsSARow struct {
	Mode      string // "NSA" or "SA"
	ULMbps    float64
	NRULMbps  float64
	LTEULMbps float64
}

// ExtNSAvsSA measures T-Mobile uplink in NSA mode (UL preferring the LTE
// anchor, as observed) against the SA variant (all UL on NR).
func ExtNSAvsSA(o Options) ([]ExtNSAvsSARow, error) {
	op, err := operators.ByAcronym("Tmb_US")
	if err != nil {
		return nil, err
	}
	run := func(op operators.Operator, mode string) (ExtNSAvsSARow, error) {
		sess, err := core.NewSession(op, operators.Stationary(o.seed()+311))
		if err != nil {
			return ExtNSAvsSARow{}, err
		}
		res, err := sess.RunIperf(o.sessionSeconds(15), net5g.Saturate, nil)
		if err != nil {
			return ExtNSAvsSARow{}, err
		}
		return ExtNSAvsSARow{
			Mode: mode, ULMbps: res.ULMbps,
			NRULMbps: res.NRULMbps, LTEULMbps: res.LTEULMbps,
		}, nil
	}
	nsa, err := run(op, "NSA")
	if err != nil {
		return nil, err
	}
	sa, err := run(op.AsSA(), "SA")
	if err != nil {
		return nil, err
	}
	return []ExtNSAvsSARow{nsa, sa}, nil
}

// ExtTDDSweepRow is one frame structure's DL/UL/latency tradeoff.
type ExtTDDSweepRow struct {
	Pattern     string
	DLDuty      float64
	DLMbps      float64
	ULMbps      float64
	LatencyMs   float64 // BLER=0 user-plane latency, preconfigured grants
	LatencySRMs float64 // with the SR cycle
}

// ExtTDDSweep explores the TDD frame-structure design space the paper
// defers ("we delegate the discussion of TDD frame structure and its
// implications on 5G performance to future works"): the same 90 MHz carrier
// under different UL/DL splits.
func ExtTDDSweep(o Options) ([]ExtTDDSweepRow, error) { return ExtTDDSweepPlan(o).Run() }

// ExtTDDSweepPlan is ExtTDDSweep with one arm per frame structure: its
// own sub-operator, link and latency models, seeded by the arm index.
func ExtTDDSweepPlan(o Options) Plan[ExtTDDSweepRow, []ExtTDDSweepRow] {
	patterns := []string{"DDDSU", "DDSUU", "DDDDDDDSUU", "DDDDDDDDSU"}
	return rowPlan(len(patterns), func(i int) (ExtTDDSweepRow, error) {
		op, err := operators.ByAcronym("V_Sp")
		if err != nil {
			return ExtTDDSweepRow{}, err
		}
		pat := patterns[i]
		sub := op
		sub.Carriers = append([]operators.Carrier(nil), op.Carriers...)
		sub.Carriers[0].TDDPattern = pat
		res, err := measureAverages(sub, operators.Stationary(o.seed()+int64(i)*157), o.sessionSeconds(12), net5g.Saturate)
		if err != nil {
			return ExtTDDSweepRow{}, err
		}
		p := tdd.MustParse(pat)
		mkLat := func(sr bool) (float64, error) {
			m, err := net5g.NewLatencyModel(net5g.LatencyConfig{
				Pattern:      p,
				SlotDuration: 500 * time.Microsecond,
				UEProcess:    150 * time.Microsecond,
				GNBProcess:   150 * time.Microsecond,
				SRBasedUL:    sr,
				Seed:         fleet.SplitSeed(o.seed(), "ext/tddlat", i),
			})
			if err != nil {
				return 0, err
			}
			clean, _ := m.Samples(5000)
			return meanMs(clean), nil
		}
		lat, err := mkLat(false)
		if err != nil {
			return ExtTDDSweepRow{}, err
		}
		latSR, err := mkLat(true)
		if err != nil {
			return ExtTDDSweepRow{}, err
		}
		return ExtTDDSweepRow{
			Pattern: pat, DLDuty: p.DLDutyCycle(),
			DLMbps: res.DLMbps, ULMbps: res.NRULMbps,
			LatencyMs: lat, LatencySRMs: latSR,
		}, nil
	})
}

// ExtABRRow is one algorithm's QoE under the busy-hour profile.
type ExtABRRow struct {
	ABR         string
	NormBitrate float64
	StallPct    float64
	Switches    int
}

// ExtABRComparison runs all five ABR implementations — the paper's three
// plus L2A and LoLP (footnote 6) — over the same busy-hour V_Sp channel.
func ExtABRComparison(o Options) ([]ExtABRRow, error) { return ExtABRComparisonPlan(o).Run() }

// ExtABRComparisonPlan is ExtABRComparison with one arm per algorithm.
func ExtABRComparisonPlan(o Options) Plan[ExtABRRow, []ExtABRRow] {
	// Fresh ABR state per arm: the constructors run inside the arm so no
	// algorithm object is shared across workers.
	algs := []func() video.ABR{
		func() video.ABR { return video.NewBOLA() },
		func() video.ABR { return &video.ThroughputABR{} },
		func() video.ABR { return video.NewDynamic() },
		func() video.ABR { return video.NewL2A() },
		func() video.ABR { return video.NewLoLP() },
	}
	return rowPlan(len(algs), func(i int) (ExtABRRow, error) {
		op, err := busyOp("V_Sp")
		if err != nil {
			return ExtABRRow{}, err
		}
		abr := algs[i]()
		link, err := videoLinkOp(op, operators.Stationary(o.seed()+401))
		if err != nil {
			return ExtABRRow{}, err
		}
		res, err := video.Play(link, video.SessionConfig{
			Ladder:        video.Ladder400,
			ChunkLength:   time.Second,
			VideoDuration: o.videoDuration(180),
			ABR:           abr,
		})
		if err != nil {
			return ExtABRRow{}, fmt.Errorf("experiments: ext abr %s: %w", abr.Name(), err)
		}
		return ExtABRRow{
			ABR:         abr.Name(),
			NormBitrate: res.AvgNormBitrate,
			StallPct:    res.StallPct(),
			Switches:    res.Switches,
		}, nil
	})
}

// ExtSchedulerRow is one scheduler policy's two-UE outcome.
type ExtSchedulerRow struct {
	Policy       string
	NearMbps     float64
	FarMbps      float64
	JainFairness float64
}

// ExtSchedulers runs the multi-UE cell under all three scheduler policies —
// the substrate behind Fig. 14, exercised faithfully with two concurrent
// UEs instead of a share parameter.
func ExtSchedulers(o Options) ([]ExtSchedulerRow, error) { return ExtSchedulersPlan(o).Run() }

// ExtSchedulersPlan is ExtSchedulers with one arm per policy. Each arm
// rebuilds its carrier config from the registry so no simulator state is
// shared between workers.
func ExtSchedulersPlan(o Options) Plan[ExtSchedulerRow, []ExtSchedulerRow] {
	pols := []gnb.SchedulerPolicy{
		gnb.SchedulerEqualShare, gnb.SchedulerProportionalFair, gnb.SchedulerMaxRate,
	}
	return rowPlan(len(pols), func(idx int) (ExtSchedulerRow, error) {
		op, err := operators.ByAcronym("Vzw_US")
		if err != nil {
			return ExtSchedulerRow{}, err
		}
		cc, err := op.CarrierConfig(0, operators.Stationary(o.seed()+509))
		if err != nil {
			return ExtSchedulerRow{}, err
		}
		cc.Channel.SINRBiasDB = -4 // the weaker Fig. 14 cell
		slots := int(o.sessionSeconds(12) / cc.Numerology.SlotDuration())
		cell, err := gnb.NewCell(gnb.CellConfig{
			Carrier: cc,
			UEs:     []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 117}},
			Policy:  pols[idx],
			// Every policy arm shares one seed on purpose: identical
			// channel draws make the scheduler comparison controlled.
			Seed: fleet.SplitSeed(o.seed(), "ext/scheduler", 0),
		})
		if err != nil {
			return ExtSchedulerRow{}, err
		}
		var near, far float64
		for i := 0; i < slots; i++ {
			res := cell.Step()
			for _, a := range res.Allocs {
				if a.UE == 0 {
					near += float64(a.Alloc.DeliveredBits)
				} else {
					far += float64(a.Alloc.DeliveredBits)
				}
			}
		}
		secs := float64(slots) * cc.Numerology.SlotDuration().Seconds()
		nearMbps, farMbps := near/secs/1e6, far/secs/1e6
		jain := 1.0
		if nearMbps+farMbps > 0 {
			jain = (nearMbps + farMbps) * (nearMbps + farMbps) /
				(2 * (nearMbps*nearMbps + farMbps*farMbps))
		}
		return ExtSchedulerRow{
			Policy: pols[idx].String(), NearMbps: nearMbps, FarMbps: farMbps, JainFairness: jain,
		}, nil
	})
}

// ULRoutingShare measures the fraction of uplink bits carried by each RAT
// under the dynamic NSA policy for a European operator — the §4.2
// "UL transmissions use both 5G and 4G channels" observation quantified.
func ULRoutingShare(o Options, acr string) (nrShare float64, err error) {
	link, err := newLink(acr, operators.Stationary(o.seed()+601), nil)
	if err != nil {
		return 0, err
	}
	res, err := iperf.Run(link, iperf.Config{Duration: o.sessionSeconds(10)})
	if err != nil {
		return 0, err
	}
	total := res.NRULMbps + res.LTEULMbps
	if total == 0 {
		return 0, fmt.Errorf("experiments: no uplink traffic for %s", acr)
	}
	return res.NRULMbps / total, nil
}

// ExtTransportRow is one operator's PHY-vs-TCP goodput comparison.
type ExtTransportRow struct {
	Operator     string
	PHYMbps      float64
	GoodputMbps  float64
	EfficiencyPc float64
	MeanRTTms    float64
}

// ExtTransport quantifies the transport-layer gap: the paper's iPerf runs
// measure PHY goodput through a TCP flow, and the congestion controller
// gives back a few percent at the bottleneck (more under heavy episodes).
func ExtTransport(o Options) ([]ExtTransportRow, error) {
	var rows []ExtTransportRow
	for i, acr := range []string{"V_Sp", "O_Sp100", "Vzw_US"} {
		link, err := newLink(acr, operators.Stationary(o.seed()+701+int64(i)*11), nil)
		if err != nil {
			return nil, err
		}
		// CSI warm-up.
		for k := 0; k < 2000; k++ {
			link.Step(net5g.Demand{DL: true})
		}
		res, err := transport.Run(link, transport.FlowConfig{}, o.sessionSeconds(12))
		if err != nil {
			return nil, err
		}
		eff := 0.0
		if res.PHYMbps > 0 {
			eff = 100 * res.GoodputMbps / res.PHYMbps
		}
		rows = append(rows, ExtTransportRow{
			Operator:     acr,
			PHYMbps:      res.PHYMbps,
			GoodputMbps:  res.GoodputMbps,
			EfficiencyPc: eff,
			MeanRTTms:    float64(res.MeanRTT) / 1e6,
		})
	}
	return rows, nil
}

// ExtHandoverRow quantifies the mobility handover cost.
type ExtHandoverRow struct {
	Mobility        string
	WithMbps        float64 // handover interruption modeled
	WithoutMbps     float64 // interruption disabled
	InterruptionPct float64 // throughput cost of handovers
}

// ExtHandover measures the throughput cost of handover interruptions for
// T-Mobile's mid-band deployment under walking and driving — part of the
// mobility story behind §7's driving degradation.
func ExtHandover(o Options) ([]ExtHandoverRow, error) {
	var rows []ExtHandoverRow
	for _, mob := range []string{"walking", "driving"} {
		run := func(disable bool) (float64, error) {
			link, err := newLink("Tmb_US", mobilityScenario(mob, o.seed()+811), func(c *net5g.LinkConfig) {
				if disable {
					for i := range c.Carriers {
						c.Carriers[i].HandoverInterruptionSlots = -1
					}
				}
			})
			if err != nil {
				return 0, err
			}
			res, err := iperf.Run(link, iperf.Config{Duration: o.sessionSeconds(15), Demand: net5g.Demand{DL: true}})
			if err != nil {
				return 0, err
			}
			return res.DLMbps, nil
		}
		with, err := run(false)
		if err != nil {
			return nil, err
		}
		without, err := run(true)
		if err != nil {
			return nil, err
		}
		cost := 0.0
		if without > 0 {
			cost = 100 * (1 - with/without)
		}
		rows = append(rows, ExtHandoverRow{
			Mobility: mob, WithMbps: with, WithoutMbps: without, InterruptionPct: cost,
		})
	}
	return rows, nil
}
