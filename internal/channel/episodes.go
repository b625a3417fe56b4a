package channel

import (
	"fmt"

	"github.com/midband5g/midband/internal/simrand"
)

// EpisodeConfig parameterizes an episodic degradation process: occasional
// multi-second interference/congestion episodes that depress the link by
// several dB and then clear. Unlike the symmetric Gaussian drift, episodes
// are negative-only and heavy-tailed — they reproduce the deep 20–40 s
// throughput sags of the paper's Figs. 13 and 16 (the direct cause of the
// video stalls in §6) while leaving the upper-quantile statistics (MIMO
// rank and modulation shares, §4.1) nearly untouched.
type EpisodeConfig struct {
	// RatePerSec is the episode arrival rate (e.g. 1/75 ≈ one every
	// 75 s).
	RatePerSec float64
	// MeanSeconds is the mean episode duration (exponentially
	// distributed).
	MeanSeconds float64
	// MinDepthDB and MaxDepthDB bound the uniform per-episode depth.
	MinDepthDB, MaxDepthDB float64
}

// Validate checks the configuration.
func (e EpisodeConfig) Validate() error {
	if e.RatePerSec < 0 || e.MeanSeconds <= 0 ||
		e.MinDepthDB < 0 || e.MaxDepthDB < e.MinDepthDB {
		return fmt.Errorf("channel: invalid episode config %+v", e)
	}
	return nil
}

type episodeState struct {
	cfg       EpisodeConfig
	rng       *simrand.Rand
	remaining float64 // seconds left in the current episode (0 = none)
	depthDB   float64
	ramp      float64 // current applied depth (episodes ramp in/out)
}

func newEpisodeState(cfg EpisodeConfig, rng *simrand.Rand) *episodeState {
	return &episodeState{cfg: cfg, rng: rng}
}

// step advances dt seconds and returns the current degradation in dB (≥ 0).
//
//detlint:zeroalloc
func (e *episodeState) step(dt float64) float64 {
	if e.remaining <= 0 {
		if e.rng.Float64() < e.cfg.RatePerSec*dt {
			e.remaining = e.rng.ExpFloat64() * e.cfg.MeanSeconds
			e.depthDB = e.cfg.MinDepthDB + e.rng.Float64()*(e.cfg.MaxDepthDB-e.cfg.MinDepthDB)
		}
	} else {
		e.remaining -= dt
	}
	// Ramp toward the target over ~1 s so onsets look like congestion
	// building rather than step functions.
	target := 0.0
	if e.remaining > 0 {
		target = e.depthDB
	}
	const rampPerSec = 1.0
	if e.ramp < target {
		e.ramp += rampPerSec * dt * e.depthDB
		if e.ramp > target {
			e.ramp = target
		}
	} else if e.ramp > target {
		d := e.depthDB
		if d == 0 {
			d = 1
		}
		e.ramp -= rampPerSec * dt * d
		if e.ramp < target {
			e.ramp = target
		}
	}
	return e.ramp
}
