package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/midband5g/midband/internal/bands"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// freqToARFCN converts a carrier's center frequency to the NR raster.
func freqToARFCN(c operators.Carrier) (uint32, error) {
	arfcn, err := bands.FreqToARFCN(c.Band.CenterMHz())
	if err != nil {
		return 0, fmt.Errorf("core: %s: %w", c.Label(), err)
	}
	return arfcn, nil
}

// CampaignConfig parameterizes a full measurement campaign across the
// operator registry.
type CampaignConfig struct {
	// Operators to measure (default: the full mid-band registry).
	Operators []operators.Operator
	// SessionDuration is the bulk-transfer length per operator.
	SessionDuration time.Duration
	// SessionsPerOperator averages the throughput KPIs over several
	// independent sessions, as the campaign methodology does (default 3;
	// the trace captures the first session).
	SessionsPerOperator int
	// LatencyProbes per operator.
	LatencyProbes int
	// TraceDir, when non-empty, receives one columnar .xcol trace file
	// per operator (its primary session).
	TraceDir string
	// TraceFormat must be "" or "xcol"; any other value is an error.
	//
	// Deprecated: .xcol is the only container a campaign writes.
	TraceFormat string
	// Seed drives all sessions. Each (operator, session) job derives
	// its own seed from the base seed and the job indices — never from
	// worker identity — so results are identical for any Workers value.
	Seed int64
	// Workers bounds the parallel session fan-out (<=0: GOMAXPROCS).
	Workers int
	// Faults, when non-nil and armed, injects deterministic failures
	// into every session (see package fault) and switches the campaign
	// to graceful degradation: transient failures are retried up to the
	// schedule's MaxAttempts with simulated backoff, and sessions that
	// still fail become Failures provenance on the stats instead of a
	// campaign error. Nil keeps the legacy fail-fast behavior and a
	// byte-identical fault-free campaign.
	Faults *fault.Schedule
	// Metrics, when non-nil, receives fleet counters (sessions done,
	// simulated slots, trace bytes written, retries).
	Metrics *fleet.Metrics
	// Progress, when non-nil, is called after each session completes.
	Progress func(done, total int, key string)
	// UEsPerCell, when > 1, appends a multi-UE contention arm after the
	// per-session measurements: each operator's primary carrier re-runs
	// as one shared cell with this many contending UEs under CellPolicy
	// (see RunMultiUEContext). 0 or 1 keeps the campaign's stats and
	// traces byte-identical to the single-UE path.
	UEsPerCell int
	// CellPolicy is the multi-UE scheduler (zero value: equal share).
	// Only consulted when UEsPerCell > 1.
	CellPolicy gnb.SchedulerPolicy
}

// SessionReport is the outcome of one operator's session.
type SessionReport struct {
	Operator  string
	Country   string
	City      string
	DLMbps    float64
	ULMbps    float64
	NRULMbps  float64
	LTEULMbps float64
	// DataBytes is the volume transferred (the Table 1 "data consumed").
	DataBytes float64
	// TracePath is the written capture (empty without TraceDir).
	TracePath string
	// LatencyClean/Retx are the mean §4.3 latencies.
	LatencyClean, LatencyRetx time.Duration
	// Sessions is how many of the operator's sessions contributed to the
	// averages (equals SessionsPerOperator unless fault injection
	// failed some).
	Sessions int
}

// CampaignStats aggregates Table 1.
type CampaignStats struct {
	Countries  map[string]bool
	Cities     map[string]bool
	Operators  int
	Minutes    float64
	DataTB     float64
	Sessions   []SessionReport
	TraceFiles int
	// Failures lists sessions lost to injected (or genuine) faults, in
	// submission order. Empty without fault injection.
	Failures []obs.SessionFailure
	// BackoffSim is the total simulated retry backoff (never slept).
	BackoffSim time.Duration
	// MultiUE holds the contention-arm reports, in registry order.
	// Empty unless CampaignConfig.UEsPerCell > 1.
	MultiUE []MultiUEReport
}

// sessionOutcome is what one fleet job (one operator session) produces:
// the session averages, not the full iperf.Result.
type sessionOutcome struct {
	dl, ul, nrUL, lteUL float64
	tracePath           string
	// clean/retx are the mean latencies, measured on the primary
	// (session-index-0) job only, like the serial campaign did.
	clean, retx time.Duration
}

// traceWrap adapts a fault session into the xcol.CreateFileVia sink
// hook; nil sessions (or sessions without trace faults armed) wrap
// nothing.
func traceWrap(fs *fault.Session) func(io.Writer) io.Writer {
	if fs == nil {
		return nil
	}
	return func(w io.Writer) io.Writer { return fs.TraceWriter(w) }
}

// runSession executes one operator session — build the link, optionally
// open a trace, run the bulk transfer — and guarantees the trace file is
// closed on every path. On error the partial trace is removed so a
// failed campaign leaves no half-written captures behind. A non-nil
// fault session threads injectors into the link, may shorten the
// transfer to an abort point, and may wrap the trace sink with
// write-error injection.
func runSession(op operators.Operator, sc operators.Scenario, d time.Duration, tracePath string, m *fleet.Metrics, fs *fault.Session) (*Session, *iperf.Result, error) {
	sess, err := NewSessionWithFaults(op, sc, fs)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s: %w", op.Acronym, err)
	}
	aborted := fs != nil && fs.Abort
	if aborted {
		// The schedule kills this session partway through: run the
		// surviving fraction so any partial trace holds real slots, then
		// abandon the measurement below.
		d = time.Duration(float64(d) * fs.AbortFraction)
	}
	// w stays a nil interface without a trace path, so the nil check in
	// Session.RunIperf stays meaningful.
	var w xcal.TraceWriter
	var f *os.File
	if tracePath != "" {
		w, f, err = xcol.CreateFileVia(tracePath, sess.Meta(), traceWrap(fs))
		if err != nil {
			return nil, nil, fmt.Errorf("core: creating trace: %w", err)
		}
	}
	res, err := sess.RunIperf(d, net5g.Saturate, w)
	if err == nil && aborted {
		err = fleet.Permanent(fault.ErrSessionAborted)
		if obs.Enabled() {
			obs.Sim.SessionAborts.Inc()
		}
	}
	if f != nil {
		if err == nil {
			// Close, not Flush: it writes the block index and tail.
			err = w.Close()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			os.Remove(tracePath)
		} else if m != nil {
			if fi, serr := os.Stat(tracePath); serr == nil {
				m.TraceBytes.Add(fi.Size())
			}
		}
	}
	if err != nil {
		if errors.Is(err, fault.ErrInjectedIO) && obs.Enabled() {
			obs.Sim.InjectedTraceErrors.Inc()
		}
		return nil, nil, fmt.Errorf("core: %s: %w", op.Acronym, err)
	}
	if m != nil {
		m.SlotsSimulated.Add(int64(res.Steps))
	}
	return sess, res, nil
}

// RunCampaign measures every configured operator once, stationary with
// full-buffer traffic, and aggregates the dataset statistics.
func RunCampaign(cfg CampaignConfig) (*CampaignStats, error) {
	return RunCampaignContext(context.Background(), cfg)
}

// RunCampaignContext is RunCampaign with cancellation: every
// (operator, session) pair is an independent fleet job, fanned out over
// cfg.Workers workers. Aggregation happens afterwards in submission
// order, so the resulting CampaignStats — including the floating-point
// accumulation order of Minutes and DataTB — is byte-identical for
// workers=1 and workers=N, with or without fault injection.
func RunCampaignContext(ctx context.Context, cfg CampaignConfig) (*CampaignStats, error) {
	ops := cfg.Operators
	if len(ops) == 0 {
		ops = operators.MidBand()
	}
	if cfg.SessionDuration == 0 {
		cfg.SessionDuration = 5 * time.Second
	}
	if cfg.LatencyProbes == 0 {
		cfg.LatencyProbes = 2000
	}
	if cfg.SessionsPerOperator == 0 {
		cfg.SessionsPerOperator = 3
	}
	if cfg.TraceFormat != "" && cfg.TraceFormat != "xcol" {
		return nil, fmt.Errorf("core: unsupported trace format %q (campaigns write only xcol)", cfg.TraceFormat)
	}
	spo := cfg.SessionsPerOperator

	// One job per (operator, session index). The simulation seed is
	// split from the base seed by (operator, session index) alone via
	// fleet.SplitSeed — attempt-independent, so a retry replays the same
	// channel realization; only the fault plan re-draws per attempt.
	jobs := make([]SessionJob[sessionOutcome], 0, len(ops)*spo)
	for _, op := range ops {
		for k := 0; k < spo; k++ {
			k, op := k, op
			jobs = append(jobs, SessionJob[sessionOutcome]{
				Key:      fmt.Sprintf("%s/%d", op.Acronym, k),
				Operator: op.Acronym,
				Session:  k,
				Run: func(fs *fault.Session) (sessionOutcome, error) {
					seed := fleet.SplitSeed(cfg.Seed, op.Acronym, k)
					path := ""
					if k == 0 && cfg.TraceDir != "" {
						sc := operators.Stationary(seed)
						path = filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-%s.xcol", op.Acronym, sc.Name))
					}
					var t0 time.Time
					if obs.Enabled() {
						t0 = time.Now() //detlint:allow walltime per-session wall-cost metric behind the obs gate
					}
					sess, res, err := runSession(op, operators.Stationary(seed), cfg.SessionDuration, path, cfg.Metrics, fs)
					if err != nil {
						return sessionOutcome{}, err
					}
					// Observability only: record the session's wall cost
					// per simulated slot and its goodput. Metrics are
					// write-only here, so obs-on and obs-off campaigns
					// aggregate byte-identically.
					if obs.Enabled() {
						if n := res.Steps; n > 0 {
							obs.Sim.SlotLatencyNs.Observe(float64(time.Since(t0).Nanoseconds()) / float64(n)) //detlint:allow walltime write-only metric; aggregates never depend on it
						}
						obs.Sim.SessionGoodputMbps.Observe(res.DLMbps)
						obs.GoodputMbps(op.Acronym).Observe(res.DLMbps)
					}
					out := sessionOutcome{dl: res.DLMbps, ul: res.ULMbps, nrUL: res.NRULMbps, lteUL: res.LTEULMbps, tracePath: path}
					if k == 0 {
						// The primary session also probes §4.3 latency.
						clean, retx, err := sess.RunLatency(cfg.LatencyProbes, 0.08)
						if err != nil {
							return sessionOutcome{}, fmt.Errorf("core: %s latency: %w", op.Acronym, err)
						}
						out.clean, out.retx = meanDuration(clean), meanDuration(retx)
					}
					return out, nil
				},
			})
		}
	}
	ran, err := RunSessions(ctx, jobs, FanOut{
		Workers:  cfg.Workers,
		Metrics:  cfg.Metrics,
		Progress: cfg.Progress,
		Faults:   cfg.Faults,
	})
	if err != nil {
		return nil, fmt.Errorf("core: campaign: %w", err)
	}

	// Deterministic aggregation: walk operators in registry order and
	// sessions in index order, mirroring the serial loop's arithmetic.
	// Failed sessions contribute provenance instead of KPIs; with zero
	// failures the float accumulation order is exactly the historical
	// one, so fault-capable and legacy campaigns are byte-identical.
	stats := &CampaignStats{
		Countries:  map[string]bool{},
		Cities:     map[string]bool{},
		Failures:   ran.Failures,
		BackoffSim: ran.BackoffSim,
	}
	for i, op := range ops {
		base := i * spo
		var dl, ul, nrUL, lteUL float64
		var primary *sessionOutcome
		nOK := 0
		for k := 0; k < spo; k++ {
			r := &ran.Results[base+k]
			if r.Err != nil {
				continue
			}
			o := r.Value
			if k == 0 {
				primary = &r.Value
			}
			dl += o.dl
			ul += o.ul
			nrUL += o.nrUL
			lteUL += o.lteUL
			nOK++
			if k > 0 {
				// Extra sessions at fresh channel realizations (§2:
				// experiments repeat across time periods; single windows
				// are congestion-episode lottery).
				stats.Minutes += cfg.SessionDuration.Minutes()
				stats.DataTB += (o.dl + o.ul) * 1e6 / 8 * cfg.SessionDuration.Seconds() / 1e12
			}
		}
		rep := SessionReport{
			Operator: op.Acronym,
			Country:  op.Country,
			City:     op.City,
			Sessions: nOK,
		}
		if primary != nil {
			if primary.tracePath != "" {
				stats.TraceFiles++
			}
			rep.TracePath = primary.tracePath
			rep.LatencyClean, rep.LatencyRetx = primary.clean, primary.retx
		}
		if nOK > 0 {
			n := float64(nOK)
			rep.DLMbps = dl / n
			rep.ULMbps = ul / n
			rep.NRULMbps = nrUL / n
			rep.LTEULMbps = lteUL / n
			rep.DataBytes = (dl/n + ul/n) * 1e6 / 8 * cfg.SessionDuration.Seconds()
			stats.Minutes += cfg.SessionDuration.Minutes()
			stats.DataTB += rep.DataBytes / 1e12
		}
		stats.Sessions = append(stats.Sessions, rep)
		stats.Countries[op.Country] = true
		stats.Cities[op.City] = true
	}
	stats.Operators = len(ops)
	if cfg.UEsPerCell > 1 {
		mu, err := RunMultiUEContext(ctx, MultiUEConfig{
			Operators:  ops,
			UEsPerCell: cfg.UEsPerCell,
			Policy:     cfg.CellPolicy,
			Duration:   cfg.SessionDuration,
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			Metrics:    cfg.Metrics,
		})
		if err != nil {
			return nil, err
		}
		stats.MultiUE = mu
	}
	return stats, nil
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}
