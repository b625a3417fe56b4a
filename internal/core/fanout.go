package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/obs"
)

// SessionJob is one session of a fault-tolerant fan-out. Operator and
// Session are the provenance recorded if the session is lost.
type SessionJob[T any] struct {
	// Key is the fleet job key; the per-attempt fault plan derives from
	// it, so it must be stable across worker counts.
	Key      string
	Operator string
	Session  int
	// Run executes one attempt under that attempt's fault plan (nil
	// when no schedule is armed).
	Run func(fs *fault.Session) (T, error)
}

// FanOut parameterizes RunSessions.
type FanOut struct {
	// Workers bounds the fleet fan-out (<=0: GOMAXPROCS).
	Workers int
	// Metrics, when non-nil, receives fleet counters.
	Metrics *fleet.Metrics
	// Progress, when non-nil, is called after each session completes.
	Progress func(done, total int, key string)
	// Faults, when armed, injects deterministic failures and switches the
	// fan-out to graceful degradation. Nil keeps fail-fast.
	Faults *fault.Schedule
}

// SessionResults is RunSessions' outcome, in submission order.
type SessionResults[T any] struct {
	// Results holds one entry per job; Err is set for lost sessions.
	Results []fleet.Result[T]
	// Failures is the provenance of every lost session.
	Failures []obs.SessionFailure
	// BackoffSim is the total simulated retry backoff (never slept).
	BackoffSim time.Duration
}

// RunSessions fans session jobs over the fleet. Each attempt draws its
// own fault plan from (key, attempt) and may be killed by an injected
// worker panic before it starts. Without an armed schedule the first
// error fails the run. With one, every job runs, transient failures
// retry with simulated backoff up to the schedule's attempt bound, and
// sessions that still fail become Failures provenance instead of an
// error; only external cancellation is returned, as a "cancelled" error.
func RunSessions[T any](ctx context.Context, jobs []SessionJob[T], opts FanOut) (*SessionResults[T], error) {
	sched := opts.Faults
	fjobs := make([]fleet.Job[T], len(jobs))
	for i, j := range jobs {
		key, run := j.Key, j.Run
		fjobs[i] = fleet.Job[T]{
			Key: key,
			RunAttempt: func(_ context.Context, attempt int) (T, error) {
				fs := sched.Session(key, attempt)
				if fs != nil && fs.Panic {
					panic(fmt.Sprintf("fault: injected worker panic (%s, attempt %d)", key, attempt))
				}
				return run(fs)
			},
		}
	}
	fopts := fleet.Options{
		Workers:  opts.Workers,
		Metrics:  opts.Metrics,
		Progress: opts.Progress,
	}
	var clock fleet.SimClock
	faultsOn := sched.Config().Active()
	if faultsOn {
		fopts.OnError = fleet.CollectAll
		fopts.MaxAttempts = sched.MaxAttempts()
		fopts.Clock = &clock
	}
	results, err := fleet.Run(ctx, fjobs, fopts)
	if err != nil {
		if !faultsOn {
			return nil, err
		}
		if ctx.Err() != nil {
			// External cancellation is not an injected fault; surface it.
			return nil, fmt.Errorf("cancelled: %w", ctx.Err())
		}
	}
	out := &SessionResults[T]{Results: results, BackoffSim: clock.Now()}
	for i := range results {
		r := &results[i]
		if r.Err == nil {
			continue
		}
		// Provenance keeps the error's first line only: a recovered panic
		// carries its stack, whose goroutine IDs and addresses would break
		// workers=1 vs workers=N byte-identity.
		msg, _, _ := strings.Cut(r.Err.Error(), "\n")
		out.Failures = append(out.Failures, obs.SessionFailure{
			Key:      r.Key,
			Operator: jobs[i].Operator,
			Session:  jobs[i].Session,
			Attempts: r.Attempts,
			Stage:    failureStage(r.Err),
			Err:      msg,
		})
		if obs.Enabled() {
			obs.Sim.SessionsFailed.Inc()
		}
	}
	return out, nil
}

// failureStage classifies a session error for provenance reporting:
// "abort", "trace-io", "cancelled", "panic" or "error".
func failureStage(err error) string {
	switch {
	case errors.Is(err, fault.ErrSessionAborted):
		return "abort"
	case errors.Is(err, fault.ErrInjectedIO):
		return "trace-io"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	case strings.Contains(err.Error(), "panic:"):
		return "panic"
	default:
		return "error"
	}
}
