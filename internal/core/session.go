// Package core orchestrates measurement campaigns: it reproduces the
// paper's methodology (§2) — per-operator experiment sessions with RRC
// warm-up, control-plane signaling capture, bulk-transfer and latency
// workloads — and produces the xcal traces and dataset statistics (Table 1)
// that all downstream analysis consumes.
package core

import (
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/ue"
	"github.com/midband5g/midband/internal/video"
	"github.com/midband5g/midband/internal/xcal"
)

// Session is one measurement session: an operator, a scenario and a live
// link.
type Session struct {
	Operator operators.Operator
	Scenario operators.Scenario
	Link     *net5g.Link
	rrc      *ue.RRC
	warmedUp bool
}

// NewSession builds the link for an operator and scenario.
func NewSession(op operators.Operator, sc operators.Scenario) (*Session, error) {
	return NewSessionWithFaults(op, sc, nil)
}

// NewSessionWithFaults is NewSession with a fault plan threaded into
// every component carrier: radio-link failures into the gnb scheduler
// and SINR blackout windows into each carrier's channel. A nil plan
// builds exactly the session NewSession builds — no component draws a
// single extra random number, so the fault path is strictly opt-in.
func NewSessionWithFaults(op operators.Operator, sc operators.Scenario, fs *fault.Session) (*Session, error) {
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		for i := range cfg.Carriers {
			cfg.Carriers[i].Fault = fs.RLF(i)
			cfg.Carriers[i].Channel.Fault = fs.Blackout(i)
		}
	}
	link, err := net5g.NewLink(cfg)
	if err != nil {
		return nil, err
	}
	rrc, err := ue.NewRRC(ue.DefaultRRC)
	if err != nil {
		return nil, err
	}
	return &Session{Operator: op, Scenario: sc, Link: link, rrc: rrc}, nil
}

// Meta describes the session for trace headers.
func (s *Session) Meta() xcal.Meta {
	return xcal.Meta{
		Operator:     s.Operator.Acronym,
		Country:      s.Operator.Country,
		City:         s.Operator.City,
		CarrierLabel: s.Operator.PCell().Label(),
		Scenario:     s.Scenario.Name,
		SlotDuration: s.Link.SlotDuration(),
		Start:        time.Unix(0, 0).UTC(), // simulated epoch
	}
}

// Signaling synthesizes the control-plane messages a UE captures during
// initial access: one MIB plus one SIB1 per component carrier, built from
// the operator profile exactly as a gNB would broadcast them.
func (s *Session) Signaling() (xcal.MIB, []xcal.SIB1, error) {
	pc := s.Operator.PCell()
	mib := xcal.MIB{
		SFN:                    0,
		SCSkHz:                 uint16(pc.SCSkHz),
		ControlResourceSetZero: 1,
		SearchSpaceZero:        0,
	}
	var sibs []xcal.SIB1
	for i, c := range s.Operator.Carriers {
		nrb, err := c.NRB()
		if err != nil {
			return mib, nil, fmt.Errorf("core: carrier %d: %w", i, err)
		}
		arfcn, err := freqToARFCN(c)
		if err != nil {
			return mib, nil, err
		}
		sibs = append(sibs, xcal.SIB1{
			CellID:                  uint32(100 + i),
			Band:                    c.Band.Name,
			AbsoluteFrequencyPointA: arfcn,
			OffsetToCarrier:         0,
			CarrierBandwidthRB:      uint16(nrb),
			SCSkHz:                  uint16(c.SCSkHz),
			FDD:                     c.TDDPattern == "",
			TDDPattern:              c.TDDPattern,
			MaxMIMOLayers:           uint8(c.MaxMIMOLayers),
			MCSTable:                uint8(c.MCSTable),
		})
	}
	return mib, sibs, nil
}

// WarmUp reproduces methodology step ❺: drive some traffic so the RRC
// connection is established and the CSI loop primed, then leave a short
// idle gap, so measurements never include the idle→connected promotion.
func (s *Session) WarmUp() error {
	if s.warmedUp {
		return nil
	}
	s.rrc.Touch(s.Link.Now())
	// 20 "seconds" of video in the paper; 1 simulated second of traffic
	// is ample to settle CSI and OLLA here.
	if _, err := iperf.Run(s.Link, iperf.Config{Duration: time.Second}); err != nil {
		return fmt.Errorf("core: warm-up: %w", err)
	}
	s.rrc.Tick(s.Link.Now())
	if s.rrc.State() != ue.RRCConnected {
		return fmt.Errorf("core: warm-up left RRC %v", s.rrc.State())
	}
	s.warmedUp = true
	return nil
}

// RunIperf runs a bulk-transfer measurement after warm-up, calling each
// observer once per step. When w is non-nil, the session writes the full
// capture: signaling first, then per-slot KPI records, plus periodic DCI
// frames for config extraction. Runs capture into a columnar
// xcol.Writer; the session itself only sees the interface, so tests can
// capture the same slots into the row xcal.Writer. Pass a nil interface
// (not a typed nil) to skip capture.
func (s *Session) RunIperf(d time.Duration, demand net5g.Demand, w xcal.TraceWriter, obs ...iperf.Observer) (*iperf.Result, error) {
	if err := s.WarmUp(); err != nil {
		return nil, err
	}
	var c *capture
	if w != nil {
		if err := s.writeSignaling(w); err != nil {
			return nil, err
		}
		c = &capture{w: w}
		obs = append([]iperf.Observer{c}, obs...)
	}
	res, err := iperf.Run(s.Link, iperf.Config{Duration: d, Demand: demand, Observers: obs})
	if err != nil {
		return nil, err
	}
	if c != nil {
		for i := range c.dcis {
			if err := w.WriteDCI(&c.dcis[i]); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// writeSignaling writes the session's MIB and SIB1s, the head of every
// capture.
func (s *Session) writeSignaling(w xcal.TraceWriter) error {
	mib, sibs, err := s.Signaling()
	if err != nil {
		return err
	}
	if err := w.WriteMIB(&mib); err != nil {
		return err
	}
	for i := range sibs {
		if err := w.WriteSIB1(&sibs[i]); err != nil {
			return err
		}
	}
	return nil
}

// capture is the observer behind a traced RunIperf: it writes every
// step's KPI records through to the trace and keeps one DCI frame per 16
// DL NR records that carry a transport block (subsampled to keep traces
// compact), which RunIperf writes after the run.
type capture struct {
	w    xcal.TraceWriter
	recs []xcal.SlotKPI // reused per step
	n    int
	dcis []xcal.DCI
}

func (c *capture) Observe(r *net5g.StepResult) error {
	c.recs = net5g.KPIRecords(*r, c.recs[:0])
	for i := range c.recs {
		k := &c.recs[i]
		if err := c.w.WriteKPI(k); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		if k.Dir != xcal.DL || k.RAT != xcal.NR || k.TBSBits == 0 {
			continue
		}
		if c.n++; c.n%16 != 0 {
			continue
		}
		format := xcal.DCI10
		if k.MCSTable == 2 {
			format = xcal.DCI11
		}
		c.dcis = append(c.dcis, xcal.DCI{
			Slot:    k.Slot,
			Format:  format,
			Carrier: k.Carrier,
			MCS:     k.MCS,
			RBs:     k.RBs,
			Rank:    k.Rank,
			NDI:     k.HARQRetx == 0,
		})
	}
	return nil
}

// RunLatency draws user-plane latency probes using the operator's §4.3
// profile, with per-leg BLER taken from the given first-transmission error
// rate.
func (s *Session) RunLatency(n int, bler float64) (clean, retx []time.Duration, err error) {
	cfg, err := s.Operator.LatencyConfig(bler, bler, fleet.SplitSeed(s.Scenario.Seed, "latency", 0))
	if err != nil {
		return nil, nil, err
	}
	model, err := net5g.NewLatencyModel(cfg)
	if err != nil {
		return nil, nil, err
	}
	clean, retx = model.Samples(n)
	return clean, retx, nil
}

// RunVideo streams a DASH session after warm-up. When w is non-nil the
// session writes signaling and application events annotating every
// chunk decision and stall — the §6 material for correlating ABR
// decisions with the network.
// Like video.Play, it leaves the link at the last chunk's arrival.
func (s *Session) RunVideo(cfg video.SessionConfig, w xcal.TraceWriter) (*video.Result, error) {
	if err := s.WarmUp(); err != nil {
		return nil, err
	}
	if w != nil {
		if err := s.writeSignaling(w); err != nil {
			return nil, err
		}
	}
	res, err := video.Play(s.Link, cfg)
	if err != nil {
		return nil, err
	}
	if w != nil {
		for _, c := range res.Chunks {
			if err := w.WriteEvent(xcal.Event{
				Time: c.RequestTime,
				Kind: "chunk-request",
				Data: fmt.Sprintf("index=%d quality=%d buffer=%.1fs", c.Index, c.Quality, c.BufferAtDecision),
			}); err != nil {
				return nil, err
			}
			if err := w.WriteEvent(xcal.Event{
				Time: c.ArriveTime,
				Kind: "chunk-arrival",
				Data: fmt.Sprintf("index=%d tput=%.1fMbps", c.Index, c.ThroughputMbps),
			}); err != nil {
				return nil, err
			}
		}
		for _, st := range res.Stalls {
			if err := w.WriteEvent(xcal.Event{
				Time: st.Start,
				Kind: "stall",
				Data: fmt.Sprintf("duration=%v", st.Duration),
			}); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}
