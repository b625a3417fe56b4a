package channel

import (
	"testing"
)

func benchChannel(b *testing.B, cfg Config) {
	ch, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm up first so the one-time growth of the first steps stays out
	// of allocs/op, which then reads the same at any -benchtime.
	for i := 0; i < benchWarmSteps; i++ {
		sinkSample = ch.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSample = ch.Step()
	}
}

// benchWarmSteps untimed steps bring a stepper to its working size.
const benchWarmSteps = 1000

// sinkSample keeps the compiler from eliding Step.
var sinkSample Sample

// BenchmarkChannelStep exercises the per-slot hot path the campaign
// spends ~40% of its time in: stationary (static-geometry fast path),
// mobile multi-site (per-slot scan), and the episode/blockage decorated
// variants.
func BenchmarkChannelStep(b *testing.B) {
	for name, cfg := range kernelTrajectories() {
		b.Run(name, func(b *testing.B) { benchChannel(b, cfg) })
	}
}

// TestChannelStepAllocs pins the steady-state slot loop at zero
// allocations per Step.
func TestChannelStepAllocs(t *testing.T) {
	for name, cfg := range kernelTrajectories() {
		t.Run(name, func(t *testing.T) {
			ch, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Warm up past any one-time growth.
			for i := 0; i < 1000; i++ {
				ch.Step()
			}
			allocs := testing.AllocsPerRun(1000, func() {
				sinkSample = ch.Step()
			})
			if allocs > 0 {
				t.Errorf("Channel.Step allocates %.2f objects/slot, want 0", allocs)
			}
		})
	}
}
