package channel

import (
	"fmt"
	"math/rand"

	"github.com/midband5g/midband/internal/obs"
)

// This file is the structure-of-arrays batch stepper behind gnb.Cell,
// which adopts every UE channel into one Batch: N adopted channels
// advance one slot per call as tight loops over parallel slices, with
// every per-slot constant (AR(1) kernel factors, fading sigmas,
// static-geometry RSRP and noise terms) hoisted into the batch at
// adoption time. Degradation episodes step inside the same loop, on the
// lane's own RNG stream. The batch produces only what the cell's
// schedulers consume — SINR and outage — so the fast path skips the RSRQ
// measurement terms and the full Sample construction. Fallback lanes get
// a full Sample from Channel.Step, but RSRQ is derived only on read
// (Sample.RSRQdB), so they never pay for the conversion either.
//
// Determinism contract: a batch-stepped channel produces bit-identical
// SINR samples, in draw-for-draw identical RNG order, to the same channel
// stepped via Channel.Step. The fast lane replays Step's exact arithmetic
// (same operand order, same factor grouping) against the same *rand.Rand
// stream; channels whose slot path is not statically reducible — mobile
// routes, blockage, fault blackouts — fall back to calling Channel.Step,
// so every configuration stays exact.

// Batch advances several Channels one slot per call. It adopts the
// channels passed to NewBatch: their mutable fading state moves into the
// batch's SoA slices, so from then on they must be stepped (and have
// their load retuned) only through the Batch. Not safe for concurrent
// use.
type Batch struct {
	chs []*Channel

	// fast and fallback partition the channel indices: fast lanes run
	// the SoA loop below, fallback lanes delegate to Channel.Step.
	fast     []int
	fallback []int

	// Mutable AR(1) state (fast lanes only; indexed by channel position).
	shadow []float64
	fastf  []float64
	slowf  []float64

	// Hoisted per-lane constants of the slot path.
	shRho, shSq, shSig []float64
	faRho, faSq, faSig []float64
	slRho, slSq, slSig []float64
	slowOn             []bool
	geoRSRP            []float64
	biasDB             []float64
	dataDBm            []float64 // 10·log10(noise + data interference)
	rngs               []*rand.Rand
}

// batchFastLane reports whether a channel's slot path is statically
// reducible to the SoA fast loop: fixed geometry (stationary route) and
// no blockage or blackout process. Episodes qualify: they draw from the
// lane's own stream and only subtract a loss term.
func batchFastLane(c *Channel) bool {
	return c.staticGeo && c.blk == nil && c.blackout == nil
}

// NewBatch adopts the given channels into a batch stepper. The channels
// keep their identities (seeds, RNG streams, configs); the batch only
// relocates their mutable fading state. Adopted channels must not be
// stepped directly afterwards.
func NewBatch(chs []*Channel) (*Batch, error) {
	if len(chs) == 0 {
		return nil, fmt.Errorf("channel: batch needs at least one channel")
	}
	n := len(chs)
	b := &Batch{
		chs:     chs,
		shadow:  make([]float64, n),
		fastf:   make([]float64, n),
		slowf:   make([]float64, n),
		shRho:   make([]float64, n),
		shSq:    make([]float64, n),
		shSig:   make([]float64, n),
		faRho:   make([]float64, n),
		faSq:    make([]float64, n),
		faSig:   make([]float64, n),
		slRho:   make([]float64, n),
		slSq:    make([]float64, n),
		slSig:   make([]float64, n),
		slowOn:  make([]bool, n),
		geoRSRP: make([]float64, n),
		biasDB:  make([]float64, n),
		dataDBm: make([]float64, n),
		rngs:    make([]*rand.Rand, n),
	}
	for i, c := range chs {
		if c == nil {
			return nil, fmt.Errorf("channel: batch lane %d is nil", i)
		}
		if !batchFastLane(c) {
			b.fallback = append(b.fallback, i)
			continue
		}
		b.fast = append(b.fast, i)
		b.adopt(i, c)
	}
	return b, nil
}

// adopt hoists one fast lane's state and constants into the SoA slices.
func (b *Batch) adopt(i int, c *Channel) {
	b.shadow[i] = c.shadowDB
	b.fastf[i] = c.fastDB
	b.slowf[i] = c.slowDB
	b.shRho[i] = c.k.shadowRho
	b.shSq[i] = c.k.shadowSq
	b.shSig[i] = c.cfg.ShadowSigmaDB
	b.faRho[i] = c.k.fastRho
	b.faSq[i] = c.k.fastSq
	b.faSig[i] = c.cfg.FastSigmaDB
	b.slRho[i] = c.k.slowRho
	b.slSq[i] = c.k.slowSq
	b.slSig[i] = c.cfg.SlowSigmaDB
	b.slowOn[i] = c.cfg.SlowSigmaDB > 0
	b.geoRSRP[i] = c.geoRSRP
	b.biasDB[i] = c.cfg.SINRBiasDB
	b.dataDBm[i] = c.geoDataDBm
	b.rngs[i] = c.rng
}

// Len returns the number of adopted channels.
func (b *Batch) Len() int { return len(b.chs) }

// FastLanes returns how many channels run on the SoA fast path, episode
// lanes included; the rest (moving, blockage and blackout channels) fall
// back to Channel.Step per slot.
func (b *Batch) FastLanes() int { return len(b.fast) }

// StepInto advances every adopted channel one slot, writing lane i's
// instantaneous SINR into sinr[i] and its outage flag into outage[i].
// Both slices must have length Len(). Fast lanes replay Channel.Step's
// exact arithmetic over the hoisted constants; fallback lanes call
// Channel.Step and keep only the two consumed fields.
//
//detlint:zeroalloc
func (b *Batch) StepInto(sinr []float64, outage []bool) {
	_ = sinr[len(b.chs)-1]
	_ = outage[len(b.chs)-1]
	obsOn := obs.Enabled()
	for _, i := range b.fast {
		c := b.chs[i]
		rng := b.rngs[i]
		// The exact Step expressions: ρ·x + √(1−ρ²)·N(0,1)·σ, evaluated
		// left to right so every intermediate rounding matches.
		b.shadow[i] = b.shRho[i]*b.shadow[i] + b.shSq[i]*rng.NormFloat64()*b.shSig[i]
		b.fastf[i] = b.faRho[i]*b.fastf[i] + b.faSq[i]*rng.NormFloat64()*b.faSig[i]
		if b.slowOn[i] {
			b.slowf[i] = b.slRho[i]*b.slowf[i] + b.slSq[i]*rng.NormFloat64()*b.slSig[i]
		}
		// Then Step's episode draws on the same stream. The loss starts
		// at 0.0 as in Step; without episodes "− 0.0" is the identity.
		loss := 0.0
		if c.epi != nil {
			loss += c.epi.step(c.dt)
		}
		// Step computes rsrp = geoRSRP + shadow, then
		// sinr = rsrp − loss + fast + slow + bias − noiseData, every
		// term in Step's order.
		rsrp := b.geoRSRP[i] + b.shadow[i]
		s := rsrp - loss + b.fastf[i] + b.slowf[i] + b.biasDB[i] - b.dataDBm[i]
		sinr[i] = s
		outage[i] = false
		c.slot++
		// Same observability hooks as Channel.Step (write-only; nothing
		// feeds back into the simulation).
		if obsOn {
			obs.Sim.SlotsStepped.Inc()
			obs.Sim.SINRdB.Observe(s)
		}
	}
	for _, i := range b.fallback {
		s := b.chs[i].Step()
		sinr[i] = s.SINRdB
		outage[i] = s.Outage
	}
}

// SetNeighborLoad retunes every adopted channel's neighbor activity
// factor (see Channel.SetNeighborLoad) and refreshes the hoisted noise
// terms of the fast lanes. Channels are updated in lane order, with the
// exact arithmetic of the scalar method.
//
//detlint:zeroalloc
func (b *Batch) SetNeighborLoad(load float64) {
	for i, c := range b.chs {
		c.SetNeighborLoad(load)
		b.dataDBm[i] = c.geoDataDBm
	}
}
