package channel

import (
	"testing"

	"github.com/midband5g/midband/internal/simrand"
)

func TestEpisodeValidation(t *testing.T) {
	bad := []EpisodeConfig{
		{RatePerSec: -1, MeanSeconds: 10, MaxDepthDB: 5},
		{RatePerSec: 0.1, MeanSeconds: 0, MaxDepthDB: 5},
		{RatePerSec: 0.1, MeanSeconds: 10, MinDepthDB: 8, MaxDepthDB: 5},
		{RatePerSec: 0.1, MeanSeconds: 10, MinDepthDB: -1, MaxDepthDB: 5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
	good := EpisodeConfig{RatePerSec: 1.0 / 60, MeanSeconds: 15, MinDepthDB: 4, MaxDepthDB: 12}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestEpisodeStatistics(t *testing.T) {
	cfg := EpisodeConfig{RatePerSec: 1.0 / 30, MeanSeconds: 8, MinDepthDB: 5, MaxDepthDB: 15}
	e := newEpisodeState(cfg, simrand.New(3))
	const dt = 0.0005
	const n = 8_000_000 // 4000 s
	degraded := 0
	maxDepth := 0.0
	episodes := 0
	prev := 0.0
	for i := 0; i < n; i++ {
		d := e.step(dt)
		if d < 0 {
			t.Fatal("negative degradation")
		}
		if d > cfg.MaxDepthDB {
			t.Fatalf("degradation %g exceeds max depth", d)
		}
		if d > 0.5 {
			degraded++
		}
		if d > maxDepth {
			maxDepth = d
		}
		if prev == 0 && d > 0 {
			episodes++
		}
		prev = d
	}
	// Stationary degraded fraction ≈ rate × mean duration = 8/30 ≈ 0.27.
	frac := float64(degraded) / n
	if frac < 0.15 || frac > 0.40 {
		t.Errorf("degraded fraction = %.2f, want ≈ 0.27", frac)
	}
	// Arrivals roughly once per 30+8 s busy cycle.
	if episodes < 60 || episodes > 200 {
		t.Errorf("episodes = %d over 4000 s, want ≈ 105", episodes)
	}
	// Depths span toward the configured maximum.
	if maxDepth < 12 {
		t.Errorf("max observed depth %.1f never approached %g", maxDepth, cfg.MaxDepthDB)
	}
}

func TestEpisodeRampIsGradual(t *testing.T) {
	cfg := EpisodeConfig{RatePerSec: 100, MeanSeconds: 10, MinDepthDB: 10, MaxDepthDB: 10}
	e := newEpisodeState(cfg, simrand.New(1))
	const dt = 0.0005
	prev := 0.0
	for i := 0; i < 100000; i++ {
		d := e.step(dt)
		// The ramp limits the per-slot change to depth·dt per second unit.
		if diff := d - prev; diff > cfg.MaxDepthDB*dt*1.01 {
			t.Fatalf("step %d: degradation jumped by %.4f dB in one slot", i, diff)
		}
		prev = d
	}
	if prev < 9.9 {
		t.Errorf("with constant arrivals the process should sit at full depth, got %.1f", prev)
	}
}

func TestChannelWithEpisodesSags(t *testing.T) {
	cfg := testConfig(5)
	cfg.Episodes = &EpisodeConfig{RatePerSec: 1.0 / 10, MeanSeconds: 5, MinDepthDB: 10, MaxDepthDB: 10}
	with, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := New(testConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	var sumW, sumWo float64
	const n = 400000
	for i := 0; i < n; i++ {
		sumW += with.Step().SINRdB
		sumWo += without.Step().SINRdB
	}
	// Episodes only ever subtract.
	if sumW >= sumWo {
		t.Errorf("episodes should lower mean SINR: with=%.1f without=%.1f", sumW/n, sumWo/n)
	}
	if diff := (sumWo - sumW) / n; diff < 1 || diff > 6 {
		t.Errorf("mean SINR deficit = %.2f dB, want the episode share ≈ 3 dB", diff)
	}
}

func TestChannelEpisodeValidationWired(t *testing.T) {
	cfg := testConfig(1)
	cfg.Episodes = &EpisodeConfig{RatePerSec: 0.1, MeanSeconds: -1}
	if _, err := New(cfg); err == nil {
		t.Error("invalid episode config should fail channel construction")
	}
}
