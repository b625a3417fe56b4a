// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact, reporting the headline values as custom
// metrics), plus the ablation benches DESIGN.md calls out and micro-benches
// of the hot paths. Run:
//
//	go test -bench=. -benchmem
package midband_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/midband5g/midband"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/experiments"
	"github.com/midband5g/midband/internal/operators"
)

// quick options keep the benches tractable; cmd/figures (without -quick)
// runs the full-length sessions.
func opts() experiments.Options { return experiments.Options{Quick: true, Seed: 2024} }

func BenchmarkTable1_CampaignStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.Table1(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.Operators), "operators")
		b.ReportMetric(s.Minutes, "minutes")
	}
}

func BenchmarkTable2_EUConfigs(b *testing.B) {
	benchTables23(b, "EU")
}

func BenchmarkTable3_USConfigs(b *testing.B) {
	benchTables23(b, "US")
}

func benchTables23(b *testing.B, region string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Tables23(opts())
		if err != nil {
			b.Fatal(err)
		}
		carriers := 0
		for _, r := range rows {
			us := r.Country == "USA"
			if (region == "US") == us {
				carriers += len(r.Carriers)
			}
		}
		b.ReportMetric(float64(carriers), "carriers")
	}
}

func BenchmarkSec32_TheoreticalMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec32(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TheoreticalMax, "theory90_Mbps")
		b.ReportMetric(rows[1].TheoreticalMax, "theory100_Mbps")
		b.ReportMetric(rows[0].GapPct, "gap90_pct")
	}
}

func BenchmarkFig01_DLThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig01(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Operator {
			case "V_It":
				b.ReportMetric(r.DLMbps, "V_It_Mbps")
			case "Vzw_US":
				b.ReportMetric(r.DLMbps, "Vzw_Mbps")
			}
		}
	}
}

func BenchmarkFig02_SpainCQI12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig02(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DLMbps, "V_Sp_Mbps")
		b.ReportMetric(rows[2].DLMbps, "O_Sp100_Mbps")
	}
}

func BenchmarkFig03_RECDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig03(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[2].CDF.Quantile(0.5), "O_Sp100_median_REs")
	}
}

func BenchmarkFig04_MaxRBs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig04(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].Alloc.Mean, "O_Sp100_mean_RBs")
	}
}

func BenchmarkFig05_ModulationShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig05(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Shares[8], "V_Sp_256QAM_pct")
		b.ReportMetric(100*rows[0].Shares[6], "V_Sp_64QAM_pct")
	}
}

func BenchmarkFig06_MIMOShares(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig06(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*rows[0].Shares[4], "V_Sp_rank4_pct")
		b.ReportMetric(100*rows[2].Shares[4], "O_Sp100_rank4_pct")
	}
}

func BenchmarkFig07_RSRQRoute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig07(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].MeanRSRQ, "V_Sp_rsrq_dB")
		b.ReportMetric(series[1].MeanRSRQ, "O_Sp_rsrq_dB")
	}
}

func BenchmarkFig08_FactorSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig08(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MeanRank, "V_Sp_mean_rank")
	}
}

func BenchmarkFig09_ULThroughputEU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig09(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Operator == "O_Sp90" {
				b.ReportMetric(r.ULMbps, "O_Sp90_UL_Mbps")
			}
		}
	}
}

func BenchmarkFig10_ULThroughputUS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Channel == "LTE_US" {
				b.ReportMetric(r.GoodULMbps, "LTE_UL_Mbps")
			}
			if r.Channel == "100" {
				b.ReportMetric(r.GoodULMbps, "Tmb_NR_UL_Mbps")
			}
		}
	}
}

func BenchmarkFig11_UserPlaneLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Operator {
			case "V_Ge":
				b.ReportMetric(r.CleanMs, "V_Ge_ms")
			case "V_It":
				b.ReportMetric(r.CleanMs, "V_It_ms")
			}
		}
	}
}

func BenchmarkFig12_Variability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig12(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(series[0].MCSMean, "O_Sp100_VMCS")
		b.ReportMetric(series[3].MCSMean, "V_It_VMCS")
	}
}

func BenchmarkFig13_TimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RBVariability, "relV_RBs")
		b.ReportMetric(res.MCSVariability, "relV_MCS")
	}
}

func BenchmarkFig14_MultiUser(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Fig14(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Location == "A" && c.Sequential {
				b.ReportMetric(c.DLMbps, "A_seq_Mbps")
			}
			if c.Location == "A" && !c.Sequential {
				b.ReportMetric(c.DLMbps, "A_sim_Mbps")
			}
		}
	}
}

func BenchmarkFig15_QoEScatter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig15(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].NormBitrate, "V_It_normrate")
	}
}

func BenchmarkFig16_VideoTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgQuality, "avg_quality")
		b.ReportMetric(res.StallPct, "stall_pct")
	}
}

func BenchmarkFig17_ChunkLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig17(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Operator == "V_Ge" && r.ChunkSec == 1 {
				b.ReportMetric(r.NormBitrate, "V_Ge_1s_normrate")
			}
			if r.Operator == "V_Ge" && r.ChunkSec == 4 {
				b.ReportMetric(r.NormBitrate, "V_Ge_4s_normrate")
			}
		}
	}
}

func BenchmarkFig18_MmWaveVariability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig18(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Tech == "mmwave" && s.Mobility == "walking" {
				b.ReportMetric(s.DLMbps, "mmw_walk_Mbps")
			}
		}
	}
}

func BenchmarkFig19_MmWaveQoE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := experiments.Fig19(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Tech == "mmwave" && p.Mobility == "driving" && p.Ladder == "1.25Gbps" {
				b.ReportMetric(p.NormBitrate, "mmw_drive_normrate")
			}
		}
	}
}

func BenchmarkFig23_CABenefit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig23(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].DLMbps, "single_Mbps")
		b.ReportMetric(rows[len(rows)-1].DLMbps, "ca160_Mbps")
	}
}

func BenchmarkFig24_ABRComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig24(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ABR == "bola" && r.Operator == "V_Sp" {
				b.ReportMetric(r.NormBitrate, "bola_normrate")
			}
		}
	}
}

func BenchmarkSec7_MobilityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Sec7(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].StabilityGainPct, "walk_stability_gain_pct")
	}
}

// BenchmarkCampaign_Parallel tracks the fleet speedup: the same
// 7-operator campaign run serially (workers=1) and with one worker per
// CPU. The sessions are independent simulations, so on an N-core
// machine the parallel case should approach N× (≥2× on 4+ cores); the
// aggregates are byte-identical either way.
func BenchmarkCampaign_Parallel(b *testing.B) {
	ops := operators.MidBand()
	if len(ops) > 7 {
		ops = ops[:7]
	}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stats, err := core.RunCampaign(core.CampaignConfig{
					Operators:       ops,
					SessionDuration: 2 * time.Second,
					LatencyProbes:   200,
					Seed:            2024,
					Workers:         workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(stats.Operators), "operators")
			}
		})
	}
}

// Micro-benchmark: the end-to-end simulation hot path (one operator link,
// slot stepping with full-buffer load).
func BenchmarkLinkStep(b *testing.B) {
	op, err := midband.OperatorByAcronym("V_Sp")
	if err != nil {
		b.Fatal(err)
	}
	link, err := midband.NewLink(op, midband.Stationary(1))
	if err != nil {
		b.Fatal(err)
	}
	demand := midband.Demand{DL: true, UL: true, Share: 1}
	// Warm up first so the first slots' one-time growth stays out of
	// allocs/op, which then reads the same at any -benchtime.
	for i := 0; i < 1000; i++ {
		link.Step(demand)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Step(demand)
	}
}

// Micro-benchmark: a full 10-second iperf measurement.
func BenchmarkIperf10s(b *testing.B) {
	for i := 0; i < b.N; i++ {
		op, err := midband.OperatorByAcronym("V_It")
		if err != nil {
			b.Fatal(err)
		}
		link, err := midband.NewLink(op, midband.Stationary(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := midband.RunIperf(link, 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DLMbps, "DL_Mbps")
	}
}

// Ablation benches: the design choices DESIGN.md calls out.

func benchAblation(b *testing.B, run func(experiments.Options) ([]experiments.AblationResult, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		rows, err := run(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Value, r.Variant+"_"+r.Unit)
		}
	}
}

func BenchmarkAblation_OLLA(b *testing.B) { benchAblation(b, experiments.AblationOLLA) }
func BenchmarkAblation_HARQ(b *testing.B) { benchAblation(b, experiments.AblationHARQ) }
func BenchmarkAblation_RankAdaptation(b *testing.B) {
	benchAblation(b, experiments.AblationRankAdaptation)
}
func BenchmarkAblation_CQIMapping(b *testing.B) { benchAblation(b, experiments.AblationCQIMapping) }
func BenchmarkAblation_Scheduler(b *testing.B)  { benchAblation(b, experiments.AblationScheduler) }
func BenchmarkAblation_BOLAGamma(b *testing.B)  { benchAblation(b, experiments.AblationBOLAGamma) }

// Extension experiment benches.

func BenchmarkExtension_NSAvsSA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtNSAvsSA(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.ULMbps, r.Mode+"_UL_Mbps")
		}
	}
}

func BenchmarkExtension_TDDSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtTDDSweep(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Pattern == "DDSUU" {
				b.ReportMetric(r.ULMbps, "DDSUU_UL_Mbps")
			}
		}
	}
}

func BenchmarkExtension_ABRFive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtABRComparison(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ABR == "l2a" {
				b.ReportMetric(r.NormBitrate, "l2a_normrate")
			}
		}
	}
}

func BenchmarkExtension_Schedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtSchedulers(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Policy == "proportional-fair" {
				b.ReportMetric(r.JainFairness, "pf_fairness")
			}
		}
	}
}

func BenchmarkExtension_Transport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtTransport(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Operator == "V_Sp" {
				b.ReportMetric(r.EfficiencyPc, "V_Sp_tcp_efficiency_pct")
			}
		}
	}
}

func BenchmarkExtension_Handover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ExtHandover(opts())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Mobility == "driving" {
				b.ReportMetric(r.InterruptionPct, "driving_handover_cost_pct")
			}
		}
	}
}
