// Package fleet is a deterministic, sharded worker pool for simulation
// jobs. Campaigns, figure regeneration and experiment sweeps are
// embarrassingly parallel — independent sessions over independent links —
// so fleet fans them out across workers while keeping every output
// byte-identical to a serial run:
//
//   - results are collected in submission order, never completion order;
//   - randomness must be derived from the job key via [SplitSeed] (or
//     an equivalent stable formula), never from worker identity, so
//     workers=1 and workers=N walk identical random sequences;
//   - panics inside a job are recovered into that job's error instead of
//     tearing down the whole campaign.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/midband5g/midband/internal/obs"
)

// Job is one unit of simulation work.
type Job[T any] struct {
	// Key identifies the job (operator acronym, session index, figure
	// ID, sweep arm). Any randomness the job needs must be derived from
	// the key and the campaign base seed — see SplitSeed — so results do
	// not depend on which worker ran the job or when.
	Key string
	// Run executes the job. The context is cancelled when the pool
	// fail-fasts or the caller cancels; long jobs may poll it.
	Run func(ctx context.Context) (T, error)
	// RunAttempt, when non-nil, is used instead of Run and receives the
	// 0-based attempt index, so a retried job can vary deterministically
	// (fault-injection schedules re-draw transient faults per attempt).
	// Jobs that don't set it are retried by re-running Run verbatim.
	RunAttempt func(ctx context.Context, attempt int) (T, error)
}

// ErrorMode selects how Run reacts to a failing job.
type ErrorMode int

const (
	// FailFast cancels the pool context on the first job error; queued
	// jobs are skipped (their Err is the context error) and Run returns
	// the triggering error. In-flight jobs still run to completion — a
	// simulation slot loop cannot be interrupted mid-step.
	FailFast ErrorMode = iota
	// CollectAll runs every job regardless of failures and returns all
	// errors joined in submission order.
	CollectAll
)

// Options configure one Run call.
type Options struct {
	// Workers is the pool size; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnError selects fail-fast (default) or collect-all handling.
	OnError ErrorMode
	// Metrics, when non-nil, receives fleet-wide counters (JobsDone is
	// maintained by the pool; jobs add slots/bytes themselves).
	Metrics *Metrics
	// Progress, when non-nil, is called after each job completes with
	// the running completion count. Calls are serialized.
	Progress func(done, total int, key string)
	// MaxAttempts bounds per-job attempts: a job whose error is
	// transient (not [Permanent], not a context error) is retried up to
	// MaxAttempts-1 times, inline on the same worker so retry order
	// cannot depend on pool scheduling. 0 or 1 disables retry.
	MaxAttempts int
	// RetryBackoff is the base of the exponential backoff between
	// attempts (base, 2·base, 4·base, …), advanced on the simulated
	// Clock — never slept — so retries are free at the wall and the
	// accumulated backoff is deterministic. Defaults to 100ms when
	// MaxAttempts enables retry.
	RetryBackoff time.Duration
	// Clock, when non-nil, accumulates the simulated retry backoff.
	Clock *SimClock
}

// Result pairs a job with its outcome. Run returns results in submission
// order regardless of completion order.
type Result[T any] struct {
	Key   string
	Value T
	Err   error
	// Attempts is how many times the job ran (1 without retry; 0 when
	// the job was skipped by fail-fast cancellation).
	Attempts int
}

// Run executes the jobs on a worker pool and returns their results in
// submission order. The returned error is nil only if every job
// succeeded; per-job errors are also available on the results, so
// collect-all callers can salvage partial output.
// EffectiveWorkers resolves an Options.Workers value to the pool size
// Run would actually use: n itself, or GOMAXPROCS when n <= 0. Callers
// recording a worker count (e.g. in a RunManifest) should store this,
// not the raw flag value.
func EffectiveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func Run[T any](ctx context.Context, jobs []Job[T], opts Options) ([]Result[T], error) {
	results := make([]Result[T], len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	workers := EffectiveWorkers(opts.Workers)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if opts.Metrics != nil {
		opts.Metrics.JobsTotal.Add(int64(len(jobs)))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // index dispenser: shards jobs over workers
		done     atomic.Int64
		failOnce sync.Once
		failErr  error // the error that triggered fail-fast; read after wg.Wait
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				results[i].Key = j.Key
				if err := ctx.Err(); err != nil {
					results[i].Err = err
					continue
				}
				var t0 time.Time
				if obs.Enabled() {
					t0 = time.Now() //detlint:allow walltime job wall-cost metric behind the obs gate
				}
				v, err := runOne(ctx, j, 0)
				results[i].Attempts = 1
				// Bounded retry with simulated backoff: transient
				// failures re-attempt inline (same worker, ascending
				// attempt index), so the result sequence is identical
				// for any pool size.
				for attempt := 1; attempt < opts.MaxAttempts && err != nil &&
					!IsPermanent(err) && ctx.Err() == nil; attempt++ {
					results[i].Attempts++
					backoff := opts.RetryBackoff
					if backoff <= 0 {
						backoff = 100 * time.Millisecond
					}
					backoff <<= attempt - 1
					if opts.Clock != nil {
						opts.Clock.Advance(backoff)
					}
					if opts.Metrics != nil {
						opts.Metrics.Retries.Add(1)
						opts.Metrics.BackoffSimNs.Add(int64(backoff))
					}
					if obs.Enabled() {
						obs.Sim.FleetRetries.Inc()
					}
					v, err = runOne(ctx, j, attempt)
				}
				results[i].Value, results[i].Err = v, err
				if obs.Enabled() {
					// Wall time only — recording never touches job state.
					obs.Sim.FleetJobSeconds.Observe(time.Since(t0).Seconds()) //detlint:allow walltime write-only metric, never read by job code
					if err != nil {
						obs.Sim.FleetJobFailures.Inc()
					}
				}
				if err != nil && opts.OnError == FailFast {
					failOnce.Do(func() {
						failErr = fmt.Errorf("fleet: %s: %w", j.Key, err)
						cancel()
					})
				}
				if opts.Metrics != nil {
					opts.Metrics.JobsDone.Add(1)
				}
				if opts.Progress != nil {
					n := int(done.Add(1))
					mu.Lock()
					opts.Progress(n, len(jobs), j.Key)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	if opts.OnError == FailFast {
		if failErr != nil {
			return results, failErr
		}
		// No job failed on its own; surface an external cancellation.
		for i := range results {
			if results[i].Err != nil {
				return results, fmt.Errorf("fleet: %s: %w", results[i].Key, results[i].Err)
			}
		}
		return results, nil
	}
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, fmt.Errorf("fleet: %s: %w", results[i].Key, results[i].Err))
		}
	}
	return results, errors.Join(errs...)
}

// runOne executes one attempt of a job with panic recovery: a panicking
// simulation arm becomes that job's error, carrying the stack for the
// report. Panics are transient for retry purposes — an injected worker
// panic is exactly the failure mode retry exists for.
func runOne[T any](ctx context.Context, j Job[T], attempt int) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if j.RunAttempt != nil {
		return j.RunAttempt(ctx, attempt)
	}
	return j.Run(ctx)
}
