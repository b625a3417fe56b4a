package scenario

import (
	"context"
	"fmt"
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
)

// Options parameterizes one scenario run. The spec owns everything that
// shapes results except the base seed; Options carries only run-level
// concerns (seed, parallelism, observability) so the same spec file can
// be replayed at any seed and worker count.
type Options struct {
	// Seed is the campaign base seed (default 2024). Every job seed
	// derives from it through the spec's seed domain.
	Seed int64
	// Workers bounds the fleet fan-out (<=0: GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives fleet counters.
	Metrics *fleet.Metrics
	// Progress, when non-nil, is called after each job completes.
	Progress func(done, total int, key string)
	// TraceDir passes through to the bulk campaign, which writes .xcol
	// traces there (traces are a bulk-app concern; the other apps
	// produce KPI reports only).
	TraceDir string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 2024
	}
	return o
}

// Edge condition names, as the MEC evaluation pipelines print them.
const (
	EdgeOn  = "EDGE_ON"
	EdgeOff = "EDGE_OFF"
)

// AppReport aggregates one operator's sessions for an app workload.
// Which fields are meaningful depends on the app; report.Scenario
// renders only the relevant columns.
type AppReport struct {
	Operator string
	// Sessions is how many sessions contributed (less than the spec's
	// count when fault injection failed some).
	Sessions int

	// Web: mean pages per session and page-load latency over all
	// completed pages.
	Pages          float64
	PageLoadMeanMs float64
	PageLoadP95Ms  float64

	// VoIP/gaming: user-plane latency probes (with retransmissions),
	// the E-model MOS (voip) and the frame-budget violation fraction
	// (gaming).
	LatencyMeanMs float64
	LatencyP95Ms  float64
	MOS           float64
	LateFrac      float64

	// Throughput KPIs (uplink: the NR-vs-LTE leg split; gaming: DL
	// headroom).
	DLMbps, ULMbps, NRULMbps, LTEULMbps float64
}

// VideoCell is one (operator, ABR, edge condition) grid cell.
type VideoCell struct {
	Operator string
	ABR      string
	Edge     string // EdgeOn or EdgeOff
	Sessions int
	// NormBitrate, StallPct and QoE are means over contributing
	// sessions; QoE is normalized bitrate minus stall fraction.
	NormBitrate float64
	StallPct    float64
	QoE         float64
	// EdgeHitPct is the observed cache-hit percentage (0 for EdgeOff).
	EdgeHitPct float64
	// QoEs are the per-session scores, in session order, NaN for
	// failed sessions — the pairing material.
	QoEs []float64
}

// VideoPair is the paired EDGE_ON-vs-EDGE_OFF comparison for one
// (operator, ABR): both arms of every pair share a channel realization,
// so the difference isolates the cache.
type VideoPair struct {
	Operator string
	ABR      string
	// QoEOn/QoEOff are the paired-session means.
	QoEOn, QoEOff float64
	// Stats summarizes the per-session differences ON−OFF.
	Stats analysis.Paired
}

// VideoResult is the MEC grid outcome.
type VideoResult struct {
	Ladder   string
	ChunkSec float64
	HitRatio float64
	Cells    []VideoCell
	Pairs    []VideoPair
}

// Result is one scenario run's outcome. Exactly one of Bulk, Reports or
// Video is populated, per the spec's traffic app; MultiUE is the
// shared-cell contention arm when the population section arms it.
type Result struct {
	// Name and Digest identify the spec that ran.
	Name   string
	Digest string
	App    string

	// Bulk holds the campaign statistics (AppBulk only).
	Bulk *core.CampaignStats
	// Reports holds per-operator app KPIs (web, voip, gaming, uplink).
	Reports []AppReport
	// Video holds the MEC grid (AppVideo only).
	Video *VideoResult

	// MultiUE is the contention arm, in band-plan order.
	MultiUE []core.MultiUEReport
	// Failures lists sessions lost to faults after retries, in
	// submission order, for every app (bulk included).
	Failures []obs.SessionFailure
	// BackoffSim is the total simulated retry backoff.
	BackoffSim time.Duration
}

// CampaignConfig maps a bulk spec onto the core campaign configuration
// — the bridge cmd/campaign's compiled flags run through, pinned to a
// DeepEqual campaign by conformance_test.go and cmd/campaign's
// TestFlagSpecEquivalence.
func (s *Spec) CampaignConfig(opts Options) (core.CampaignConfig, error) {
	if s.Traffic.App != AppBulk {
		return core.CampaignConfig{}, fmt.Errorf("scenario: %s: app %q has no campaign mapping", s.Name, s.Traffic.App)
	}
	opts = opts.withDefaults()
	ops, err := s.Operators()
	if err != nil {
		return core.CampaignConfig{}, err
	}
	sched, err := s.Schedule()
	if err != nil {
		return core.CampaignConfig{}, err
	}
	cfg := core.CampaignConfig{
		Operators:           ops,
		SessionDuration:     s.Duration(),
		SessionsPerOperator: s.Sessions.Count,
		TraceDir:            opts.TraceDir,
		Seed:                opts.Seed,
		Workers:             opts.Workers,
		Faults:              sched,
		Metrics:             opts.Metrics,
		Progress:            opts.Progress,
	}
	if s.Population.UEsPerCell > 1 {
		cfg.UEsPerCell = s.Population.UEsPerCell
		policy, err := s.cellPolicy()
		if err != nil {
			return core.CampaignConfig{}, err
		}
		cfg.CellPolicy = policy
	}
	return cfg, nil
}

// Run executes the scenario: one fleet job per arm session through
// core.RunSessions, aggregated in spec order so results are
// byte-identical for any Workers value, with the spec's fault schedule
// (if any) driving graceful degradation.
func Run(ctx context.Context, s *Spec, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	digest, err := s.Digest()
	if err != nil {
		return nil, err
	}
	res := &Result{Name: s.Name, Digest: digest, App: s.Traffic.App}

	switch s.Traffic.App {
	case AppBulk:
		cfg, err := s.CampaignConfig(opts)
		if err != nil {
			return nil, err
		}
		stats, err := core.RunCampaignContext(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
		res.Bulk = stats
		res.MultiUE = stats.MultiUE
		res.Failures = stats.Failures
		res.BackoffSim = stats.BackoffSim
		return res, nil
	case AppVideo:
		if err := runVideoGrid(ctx, s, opts, res); err != nil {
			return nil, err
		}
	default:
		if err := runApp(ctx, s, opts, res); err != nil {
			return nil, err
		}
	}

	if s.Population.UEsPerCell > 1 {
		policy, err := s.cellPolicy()
		if err != nil {
			return nil, err
		}
		ops, err := s.Operators()
		if err != nil {
			return nil, err
		}
		mu, err := core.RunMultiUEContext(ctx, core.MultiUEConfig{
			Operators:  ops,
			UEsPerCell: s.Population.UEsPerCell,
			Policy:     policy,
			Duration:   s.Duration(),
			Seed:       opts.Seed,
			Workers:    opts.Workers,
			Metrics:    opts.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: multi-UE arm: %w", s.Name, err)
		}
		res.MultiUE = mu
	}
	return res, nil
}

// fanOut is the session fan-out configuration shared by the app and
// video drivers.
func (s *Spec) fanOut(opts Options) (core.FanOut, error) {
	sched, err := s.Schedule()
	return core.FanOut{
		Workers:  opts.Workers,
		Metrics:  opts.Metrics,
		Progress: opts.Progress,
		Faults:   sched,
	}, err
}

func (s *Spec) cellPolicy() (gnb.SchedulerPolicy, error) {
	return gnb.ParsePolicy(s.Population.CellPolicy)
}

// sessionSeed derives the simulation seed for (operator, session) —
// attempt-independent, worker-independent, isolated by the spec's seed
// domain.
func (s *Spec) sessionSeed(base int64, acr string, k int) int64 {
	return fleet.SplitSeed(base, s.SeedDomain+"/"+acr, k)
}

// jobKey names one session job.
func (s *Spec) jobKey(acr string, k int) string {
	return fmt.Sprintf("%s/%s/%d", s.Name, acr, k)
}

// maybeAbort applies the fault plan's mid-session abort to an app
// session: app drivers produce KPI aggregates rather than traces, so an
// aborted session contributes provenance, not a partial capture.
func maybeAbort(fs *fault.Session) error {
	if fs == nil || !fs.Abort {
		return nil
	}
	if obs.Enabled() {
		obs.Sim.SessionAborts.Inc()
	}
	return fleet.Permanent(fault.ErrSessionAborted)
}
