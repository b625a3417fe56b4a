package gnb

import (
	"fmt"
	"testing"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/tdd"
)

func benchCarrierConfig() CarrierConfig {
	return CarrierConfig{
		Label:      "bench/90MHz",
		Numerology: phy.Mu1,
		NRB:        245,
		Pattern:    tdd.MustParse("DDDDDDDSUU"),
		MCSTable:   phy.MCSTable256QAM,
		Channel: channel.Config{
			CarrierFreqMHz:           3500,
			Route:                    channel.Stationary(channel.Point{X: 450}),
			Deployment:               channel.Deployment{Sites: []channel.Point{{}}, TxPowerDBmPerRE: 18},
			OtherCellInterferenceDBm: -100,
			ShadowSigmaDB:            2,
			FastSigmaDB:              1.2,
		},
		ULSINROffsetDB: 6,
		ULMaxRank:      2,
		Seed:           77,
	}
}

var sinkSlot SlotResult

// benchWarmSlots untimed slots bring a carrier or cell to its working
// size before a benchmark's timer starts.
const benchWarmSlots = 1000

// BenchmarkCarrierStep is the full per-slot scheduler path: channel step,
// CSI loop, AMC, TBS, BLER draw, HARQ bookkeeping.
func BenchmarkCarrierStep(b *testing.B) {
	c, err := NewCarrier(benchCarrierConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Warm up first so the one-time growth of the first slots (CSI and
	// HARQ queues) stays out of allocs/op, which then reads the same at
	// any -benchtime.
	for i := 0; i < benchWarmSlots; i++ {
		sinkSlot = c.Step(FullBuffer, FullBuffer)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSlot = c.Step(FullBuffer, FullBuffer)
	}
}

// TestCarrierStepAllocs pins the steady-state slot loop at zero
// allocations per Step: after warm-up (CSI queue and HARQ queues at
// their working size), scheduling a slot must not touch the allocator.
func TestCarrierStepAllocs(t *testing.T) {
	c, err := NewCarrier(benchCarrierConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		c.Step(FullBuffer, FullBuffer)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		sinkSlot = c.Step(FullBuffer, FullBuffer)
	})
	if allocs > 0 {
		t.Errorf("Carrier.Step allocates %.3f objects/slot in steady state, want 0", allocs)
	}
}

// benchUEs lays n UEs on a deterministic grid across the cell so every
// population size in the BenchmarkCellMultiUE family sees the same mix
// of near, mid and edge channel geometries.
func benchUEs(n int) []channel.Point {
	pts := make([]channel.Point, n)
	for i := range pts {
		pts[i] = channel.Point{X: 80 + float64(i%16)*55, Y: float64(i/16) * 45}
	}
	return pts
}

// BenchmarkCellMultiUE is the contention-model slot path under
// proportional fair — per-UE channel + CSI steps, HARQ queues,
// integer-RB PF split, TB sizing and delivery — swept over population
// sizes on Cell.Step's structure-of-arrays engine. Each size reports ns/UE-slot, the
// per-UE cost of one scheduled slot; the curve should bend DOWN as the
// population grows (shared per-slot work amortizes), which is what the
// bench gate watches. The episodes/ues=N sizes add the mid-band
// registry's degradation-episode process to every UE channel, as the
// real operator profiles do.
func BenchmarkCellMultiUE(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("ues=%d", n), func(b *testing.B) {
			benchCellMultiUE(b, benchCarrierConfig(), n)
		})
	}
	episodes := benchCarrierConfig()
	episodes.Channel.Episodes = &channel.EpisodeConfig{
		RatePerSec: 1.0 / 80, MeanSeconds: 14, MinDepthDB: 5, MaxDepthDB: 15,
	}
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("episodes/ues=%d", n), func(b *testing.B) {
			benchCellMultiUE(b, episodes, n)
		})
	}
}

// benchCellMultiUE steps an n-UE proportional-fair contention cell on
// carrier and reports ns/UE-slot.
func benchCellMultiUE(b *testing.B, carrier CarrierConfig, n int) {
	cell, err := NewCell(CellConfig{
		Carrier: carrier,
		UEs:     benchUEs(n),
		Policy:  SchedulerProportionalFair,
		Model:   CellModelContention,
		Seed:    31,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sink CellSlot
	for i := 0; i < benchWarmSlots; i++ {
		sink = cell.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = cell.Step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/UE-slot")
	_ = sink
}

// TestCellStepAllocs pins the share model's steady-state slot loop at
// zero allocations, across three policies.
func TestCellStepAllocs(t *testing.T) {
	for _, policy := range []SchedulerPolicy{SchedulerEqualShare, SchedulerProportionalFair, SchedulerMaxRate} {
		t.Run(policy.String(), func(t *testing.T) {
			cell, err := NewCell(CellConfig{
				Carrier: benchCarrierConfig(),
				UEs:     []channel.Point{{X: 120}, {X: 650}},
				Policy:  policy,
				Seed:    31,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				cell.Step()
			}
			allocs := testing.AllocsPerRun(5000, func() {
				cell.Step()
			})
			if allocs > 0 {
				t.Errorf("Cell.Step (%v) allocates %.3f objects/slot in steady state, want 0", policy, allocs)
			}
		})
	}
}

// TestCellContentionStepAllocs pins the contention model's steady-state
// slot loop at zero allocations across all four policies, and at the
// cell64 population under PF with finite traffic, where the ready set
// churns and the PF ranking's scratch must already be sized by NewCell.
// HARQ queues and scratch slices reach their working size during
// warm-up; after that a slot must not touch the allocator.
func TestCellContentionStepAllocs(t *testing.T) {
	for _, policy := range []SchedulerPolicy{
		SchedulerEqualShare, SchedulerProportionalFair, SchedulerMaxRate, SchedulerRoundRobin,
	} {
		t.Run(policy.String(), func(t *testing.T) {
			assertContentionStepZeroAlloc(t, CellConfig{
				Carrier: benchCarrierConfig(),
				UEs:     []channel.Point{{X: 120}, {X: 300}, {X: 480}, {X: 650}},
				Policy:  policy,
				Model:   CellModelContention,
				Seed:    31,
			})
		})
	}
	t.Run("proportional-fair/ues=64/finite", func(t *testing.T) {
		traffic := make([]UETraffic, 64)
		for i := range traffic {
			if i%4 != 0 {
				traffic[i].OfferedMbps = float64(2 + i%7*3)
			}
		}
		assertContentionStepZeroAlloc(t, CellConfig{
			Carrier: benchCarrierConfig(),
			UEs:     benchUEs(64),
			Policy:  SchedulerProportionalFair,
			Model:   CellModelContention,
			Seed:    31,
			Traffic: traffic,
		})
	})
}

func assertContentionStepZeroAlloc(t *testing.T, cfg CellConfig) {
	t.Helper()
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20_000; i++ {
		cell.Step()
	}
	allocs := testing.AllocsPerRun(5000, func() {
		cell.Step()
	})
	if allocs > 0 {
		t.Errorf("Cell.Step contention (%v, %d UEs) allocates %.3f objects/slot in steady state, want 0",
			cfg.Policy, len(cfg.UEs), allocs)
	}
}

// ollaPickInput is one OLLA-shifted MCS pick's arguments.
type ollaPickInput struct {
	cqi  phy.CQI
	olla float64
}

var sinkMCS uint8

// BenchmarkOLLAMCSPick replays the (CQI, OLLA offset) sequence a 64-UE
// proportional-fair contention cell feeds the MCS pick: every fresh TB
// of 2000 slots after warm-up, with the offset its UE held before the
// slot's decode moved it. One op is one pick.
func BenchmarkOLLAMCSPick(b *testing.B) {
	cell, err := NewCell(CellConfig{
		Carrier: benchCarrierConfig(),
		UEs:     benchUEs(64),
		Policy:  SchedulerProportionalFair,
		Model:   CellModelContention,
		Seed:    31,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchWarmSlots; i++ {
		cell.Step()
	}
	var seq []ollaPickInput
	olla := make([]float64, len(cell.olla))
	for i := 0; i < 2000; i++ {
		copy(olla, cell.olla)
		for _, a := range cell.Step().Allocs {
			if a.Alloc.HARQRetx == 0 {
				seq = append(seq, ollaPickInput{a.CQI, olla[a.UE]})
			}
		}
	}
	if len(seq) == 0 {
		b.Fatal("the cell scheduled no fresh TB")
	}
	o := cell.tb.mcsPick
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := &seq[i%len(seq)]
		sinkMCS = o.pick(in.cqi, in.olla)
	}
}
