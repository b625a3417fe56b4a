package channel

import (
	"fmt"

	"github.com/midband5g/midband/internal/simrand"
)

// BlockageConfig parameterizes the mmWave LOS/NLOS/outage Markov process
// that makes FR2 channels erratic (§7 of the paper: limited coverage,
// sensitivity to obstructions, outages under driving).
type BlockageConfig struct {
	// NLOSLossDB is the extra loss while blocked (typ. 15–25 dB).
	NLOSLossDB float64
	// BlockRatePerSec is the LOS→NLOS transition rate when stationary.
	BlockRatePerSec float64
	// RecoverRatePerSec is the NLOS→LOS transition rate.
	RecoverRatePerSec float64
	// OutageRatePerSec is the NLOS→outage transition rate.
	OutageRatePerSec float64
	// OutageRecoverPerSec is the outage→LOS transition rate.
	OutageRecoverPerSec float64
	// SpeedFactor scales the block and outage rates per m/s of UE speed;
	// this is what makes driving so much worse than walking on mmWave.
	SpeedFactor float64
}

// DefaultBlockage is a 28 GHz urban profile. Blockage transitions are
// frequent — pedestrians, foliage and self-blockage swing the link between
// boresight LOS and a heavily attenuated NLOS state several times per
// second once the UE moves, which is what makes FR2 throughput so erratic
// in §7 of the paper.
var DefaultBlockage = BlockageConfig{
	NLOSLossDB:          16,
	BlockRatePerSec:     1.0,
	RecoverRatePerSec:   1.8,
	OutageRatePerSec:    1.0,
	OutageRecoverPerSec: 4.0,
	SpeedFactor:         0.12,
}

// Validate checks the rates are non-negative.
func (b BlockageConfig) Validate() error {
	if b.NLOSLossDB < 0 || b.BlockRatePerSec < 0 || b.RecoverRatePerSec <= 0 ||
		b.OutageRatePerSec < 0 || b.OutageRecoverPerSec <= 0 || b.SpeedFactor < 0 {
		return fmt.Errorf("channel: invalid blockage config %+v", b)
	}
	return nil
}

type blockState uint8

const (
	stateLOS blockState = iota
	stateNLOS
	stateOutage
)

type blockageState struct {
	cfg   BlockageConfig
	rng   *simrand.Rand
	state blockState
}

func newBlockageState(cfg BlockageConfig, rng *simrand.Rand) *blockageState {
	return &blockageState{cfg: cfg, rng: rng, state: stateLOS}
}

// step advances the chain by dt seconds at the given UE speed and returns
// (los, outage, lossDB).
//
//detlint:zeroalloc
func (b *blockageState) step(dt, speed float64) (los, outage bool, lossDB float64) {
	mob := 1 + b.cfg.SpeedFactor*speed
	switch b.state {
	case stateLOS:
		if b.rng.Float64() < b.cfg.BlockRatePerSec*mob*dt {
			b.state = stateNLOS
		}
	case stateNLOS:
		switch r := b.rng.Float64(); {
		case r < b.cfg.RecoverRatePerSec*dt:
			b.state = stateLOS
		case r < (b.cfg.RecoverRatePerSec+b.cfg.OutageRatePerSec*mob)*dt:
			b.state = stateOutage
		}
	case stateOutage:
		if b.rng.Float64() < b.cfg.OutageRecoverPerSec*dt {
			b.state = stateLOS
		}
	}
	switch b.state {
	case stateNLOS:
		return false, false, b.cfg.NLOSLossDB
	case stateOutage:
		return false, true, 0
	default:
		return true, false, 0
	}
}
