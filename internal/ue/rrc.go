package ue

import (
	"fmt"
	"time"
)

// RRCState is the radio resource control connection state.
type RRCState uint8

const (
	// RRCIdle means no active connection; data triggers a promotion.
	RRCIdle RRCState = iota
	// RRCConnecting is the promotion in progress.
	RRCConnecting
	// RRCConnected is fully connected.
	RRCConnected
)

func (s RRCState) String() string {
	switch s {
	case RRCIdle:
		return "idle"
	case RRCConnecting:
		return "connecting"
	default:
		return "connected"
	}
}

// RRCConfig parameterizes the state machine.
type RRCConfig struct {
	// PromotionDelay is the idle→connected latency (control-plane setup).
	PromotionDelay time.Duration
	// InactivityTimeout demotes connected→idle after this much silence.
	InactivityTimeout time.Duration
}

// DefaultRRC reflects typical NSA deployments: ~120 ms promotion, 10 s
// inactivity release.
var DefaultRRC = RRCConfig{
	PromotionDelay:    120 * time.Millisecond,
	InactivityTimeout: 10 * time.Second,
}

// RRC models the connection state over time. The paper's methodology plays
// 20 s of video and waits 5 s before each experiment so measurements always
// start in RRCConnected; the campaign runner reproduces that warm-up.
type RRC struct {
	cfg          RRCConfig
	state        RRCState
	stateSince   time.Duration
	lastActivity time.Duration
}

// NewRRC creates an idle state machine.
func NewRRC(cfg RRCConfig) (*RRC, error) {
	if cfg.PromotionDelay < 0 || cfg.InactivityTimeout <= 0 {
		return nil, fmt.Errorf("ue: invalid RRC config %+v", cfg)
	}
	return &RRC{cfg: cfg}, nil
}

// State returns the current state.
func (r *RRC) State() RRCState { return r.state }

// Touch records data activity at time now, promoting if idle. It returns
// the delay until the data can actually flow (zero when connected).
func (r *RRC) Touch(now time.Duration) time.Duration {
	r.lastActivity = now
	switch r.state {
	case RRCIdle:
		r.state = RRCConnecting
		r.stateSince = now
		return r.cfg.PromotionDelay
	case RRCConnecting:
		remaining := r.cfg.PromotionDelay - (now - r.stateSince)
		if remaining <= 0 {
			r.state = RRCConnected
			r.stateSince = now
			return 0
		}
		return remaining
	default:
		return 0
	}
}

// Tick advances time, completing promotions and applying the inactivity
// timeout.
func (r *RRC) Tick(now time.Duration) {
	switch r.state {
	case RRCConnecting:
		if now-r.stateSince >= r.cfg.PromotionDelay {
			r.state = RRCConnected
			r.stateSince = now
		}
	case RRCConnected:
		if now-r.lastActivity >= r.cfg.InactivityTimeout {
			r.state = RRCIdle
			r.stateSince = now
		}
	}
}
