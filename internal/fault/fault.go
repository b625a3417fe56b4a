// Package fault is the deterministic fault-injection subsystem: a
// seed-driven [Schedule] decides — independently of worker count,
// scheduling order or wall time — which sessions suffer radio-link
// failures, SINR blackout windows, trace-sink I/O errors, mid-session
// aborts or worker panics. The field campaign the simulator reproduces
// is full of exactly these events (coverage holes, handover
// interruptions, radio-link failures, lost sessions), and the paper's
// KPI tails are shaped by them, so the simulator treats them as
// first-class inputs rather than errors.
//
// Determinism contract: every fault decision derives from the schedule
// seed via [fleet.SplitSeed] over (session key, attempt) — never from
// worker identity or completion order — so a campaign with faults
// enabled is byte-identical for Workers=1 and Workers=N. With no
// schedule installed (the default), no component draws a single extra
// random number, keeping the fault path strictly opt-in and the
// disabled hot path zero-cost (a nil check per slot).
package fault

import (
	"errors"
	"fmt"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/simrand"
)

// ErrInjectedIO is the error surfaced by [Writer] when the schedule
// injects a trace-sink write failure.
var ErrInjectedIO = errors.New("fault: injected I/O error")

// ErrSessionAborted marks a session the schedule chose to abort
// mid-transfer. It is a permanent failure: retrying cannot help, the
// session is gone (the UE lost coverage, the app was killed). Campaign
// runners record it as failure provenance instead of failing the run.
var ErrSessionAborted = errors.New("fault: session aborted")

// Config parameterizes a fault schedule. The zero value injects
// nothing; any non-zero rate arms the corresponding fault class.
type Config struct {
	// RLFProbPerSlot is the per-slot probability of a radio-link
	// failure on each NR carrier. An RLF interrupts data for
	// RLFReestablishSlots slots (RRC re-establishment) and desyncs the
	// CSI feedback loop, which must re-prime afterwards.
	RLFProbPerSlot float64
	// RLFReestablishSlots is the re-establishment delay in slots
	// (default 240 ≈ 120 ms at 30 kHz SCS, the RRC promotion delay).
	RLFReestablishSlots int
	// BlackoutProbPerSlot is the per-slot probability that a SINR
	// blackout window opens on a carrier's channel (deep coverage hole,
	// passing obstruction).
	BlackoutProbPerSlot float64
	// BlackoutDurationSlots is the blackout window length
	// (default 400 ≈ 200 ms at 30 kHz SCS).
	BlackoutDurationSlots int
	// BlackoutDepthDB is the SINR suppression inside a window
	// (default 40 dB — deep enough to drive CQI to 0).
	BlackoutDepthDB float64
	// TraceErrorPerWrite is the per-write probability that a trace
	// sink write fails with [ErrInjectedIO].
	TraceErrorPerWrite float64
	// SessionAbortProb is the per-session probability of a mid-transfer
	// abort (permanent: never retried).
	SessionAbortProb float64
	// WorkerPanicProb is the per-attempt probability that the session's
	// job panics, exercising the fleet's panic recovery (transient:
	// retried attempts re-draw).
	WorkerPanicProb float64
	// MaxAttempts bounds per-session attempts when a campaign retries
	// transient failures (default 3; 1 disables retry).
	MaxAttempts int
	// Seed is the fault-schedule base seed, independent of the
	// simulation seed so fault patterns can vary while the underlying
	// channel realizations stay fixed (and vice versa).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.RLFReestablishSlots == 0 {
		c.RLFReestablishSlots = 240
	}
	if c.BlackoutDurationSlots == 0 {
		c.BlackoutDurationSlots = 400
	}
	if c.BlackoutDepthDB == 0 {
		c.BlackoutDepthDB = 40
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 3
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"rlf", c.RLFProbPerSlot},
		{"blackout", c.BlackoutProbPerSlot},
		{"trace", c.TraceErrorPerWrite},
		{"abort", c.SessionAbortProb},
		{"panic", c.WorkerPanicProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s probability %g outside [0,1]", p.name, p.v)
		}
	}
	if c.RLFReestablishSlots < 1 || c.BlackoutDurationSlots < 1 {
		return fmt.Errorf("fault: non-positive fault durations (reestablish=%d, blackout=%d)",
			c.RLFReestablishSlots, c.BlackoutDurationSlots)
	}
	if c.BlackoutDepthDB < 0 {
		return fmt.Errorf("fault: blackout depth %g dB negative", c.BlackoutDepthDB)
	}
	if c.MaxAttempts < 1 {
		return fmt.Errorf("fault: max attempts %d < 1", c.MaxAttempts)
	}
	return nil
}

// Active reports whether any fault class is armed.
func (c Config) Active() bool {
	return c.RLFProbPerSlot > 0 || c.BlackoutProbPerSlot > 0 ||
		c.TraceErrorPerWrite > 0 || c.SessionAbortProb > 0 || c.WorkerPanicProb > 0
}

// Schedule is a validated fault plan. A nil *Schedule means no
// injection anywhere; a non-nil schedule hands each session a
// deterministic [Session] derived from (key, attempt).
type Schedule struct {
	cfg Config
}

// NewSchedule validates cfg and returns the schedule.
func NewSchedule(cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Schedule{cfg: cfg.withDefaults()}, nil
}

// Config returns the effective (defaulted) configuration.
func (s *Schedule) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// MaxAttempts returns the per-session attempt bound (1 for a nil
// schedule).
func (s *Schedule) MaxAttempts() int {
	if s == nil {
		return 1
	}
	return s.cfg.MaxAttempts
}

// Session derives the fault plan for one (session key, attempt) pair.
// The derivation routes through fleet.SplitSeed, so it depends only on
// (schedule seed, key, attempt): any worker count, submission order or
// retry interleaving produces the same plan. Each attempt re-draws the
// transient decisions (panics, trace errors, radio faults), so a retry
// is a genuinely fresh try; the abort decision is drawn once per
// session key (attempt 0) because aborts are permanent.
func (s *Schedule) Session(key string, attempt int) *Session {
	if s == nil {
		return nil
	}
	base := fleet.SplitSeed(s.cfg.Seed, "fault/session/"+key, attempt)
	rng := simrand.New(base)
	f := &Session{cfg: s.cfg, base: base}
	// Fixed draw order — inserting a new decision class must append
	// draws, never reorder them, or every existing fault plan shifts.
	f.Panic = s.cfg.WorkerPanicProb > 0 && rng.Float64() < s.cfg.WorkerPanicProb
	f.AbortFraction = 0.10 + 0.80*rng.Float64()
	// Permanent decisions come from the attempt-0 stream so a retry
	// cannot dodge them.
	abortRng := rng
	if attempt != 0 {
		abortRng = simrand.New(fleet.SplitSeed(s.cfg.Seed, "fault/session/"+key, 0))
		abortRng.Float64() // skip the panic draw
		f.AbortFraction = 0.10 + 0.80*abortRng.Float64()
	}
	f.Abort = s.cfg.SessionAbortProb > 0 && abortRng.Float64() < s.cfg.SessionAbortProb
	return f
}

// Session is one session's concrete fault plan. A nil *Session injects
// nothing.
type Session struct {
	cfg  Config
	base int64

	// Abort marks the session for a mid-transfer abort after
	// AbortFraction of its configured duration (a permanent failure).
	Abort bool
	// AbortFraction ∈ [0.10, 0.90] is the fraction of the session that
	// completes before the abort.
	AbortFraction float64
	// Panic marks this attempt's job for an injected panic, exercising
	// the fleet's recover-into-error path.
	Panic bool
}

// RLF returns the radio-link-failure injector config for carrier index
// i, or nil when RLFs are not armed (or the session is nil).
func (f *Session) RLF(i int) *RLF {
	if f == nil || f.cfg.RLFProbPerSlot <= 0 {
		return nil
	}
	return &RLF{
		ProbPerSlot:      f.cfg.RLFProbPerSlot,
		ReestablishSlots: f.cfg.RLFReestablishSlots,
		Seed:             fleet.SplitSeed(f.base, "rlf", i),
	}
}

// Blackout returns the SINR blackout injector config for carrier index
// i, or nil when blackouts are not armed (or the session is nil).
func (f *Session) Blackout(i int) *Blackout {
	if f == nil || f.cfg.BlackoutProbPerSlot <= 0 {
		return nil
	}
	return &Blackout{
		ProbPerSlot:   f.cfg.BlackoutProbPerSlot,
		DurationSlots: f.cfg.BlackoutDurationSlots,
		DepthDB:       f.cfg.BlackoutDepthDB,
		Seed:          fleet.SplitSeed(f.base, "blackout", i),
	}
}

// TraceWriter wraps a trace sink with deterministic write-error
// injection; it returns w unchanged when trace faults are not armed
// (or the session is nil).
func (f *Session) TraceWriter(w ioWriter) ioWriter {
	if f == nil || f.cfg.TraceErrorPerWrite <= 0 {
		return w
	}
	return NewWriter(w, f.cfg.TraceErrorPerWrite, fleet.SplitSeed(f.base, "trace", 0))
}

// RLF configures one carrier's radio-link-failure process; gnb.Carrier
// builds an [RLFState] from it.
type RLF struct {
	ProbPerSlot      float64
	ReestablishSlots int
	Seed             int64
}

// RLFState is the per-carrier RLF process. Not safe for concurrent use.
type RLFState struct {
	rng  *simrand.Rand
	prob float64
	// ReestablishSlots is the configured interruption length.
	ReestablishSlots int
}

// NewRLFState builds the process (nil for a nil config).
func NewRLFState(cfg *RLF) *RLFState {
	if cfg == nil || cfg.ProbPerSlot <= 0 {
		return nil
	}
	return &RLFState{
		rng:              simrand.New(cfg.Seed),
		prob:             cfg.ProbPerSlot,
		ReestablishSlots: cfg.ReestablishSlots,
	}
}

// Step draws one slot and reports whether a radio-link failure fires.
// Exactly one RNG draw per call, so the process is independent of the
// surrounding simulation's randomness.
func (s *RLFState) Step() bool {
	return s.rng.Float64() < s.prob
}

// Blackout configures one channel's SINR blackout process;
// channel.Channel builds a [BlackoutState] from it.
type Blackout struct {
	ProbPerSlot   float64
	DurationSlots int
	DepthDB       float64
	Seed          int64
}

// BlackoutState is the per-channel blackout process. Not safe for
// concurrent use.
type BlackoutState struct {
	rng      *simrand.Rand
	prob     float64
	duration int
	depthDB  float64
	left     int // slots remaining in the open window
}

// NewBlackoutState builds the process (nil for a nil config).
func NewBlackoutState(cfg *Blackout) *BlackoutState {
	if cfg == nil || cfg.ProbPerSlot <= 0 {
		return nil
	}
	return &BlackoutState{
		rng:      simrand.New(cfg.Seed),
		prob:     cfg.ProbPerSlot,
		duration: cfg.DurationSlots,
		depthDB:  cfg.DepthDB,
	}
}

// Step advances one slot and returns the SINR suppression to apply
// (0 outside windows). While a window is open no RNG draws occur, so a
// blackout's length never perturbs the draw sequence of later windows.
func (s *BlackoutState) Step() (lossDB float64) {
	if s.left > 0 {
		s.left--
		return s.depthDB
	}
	if s.rng.Float64() < s.prob {
		s.left = s.duration - 1
		return s.depthDB
	}
	return 0
}
