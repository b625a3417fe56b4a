package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
)

// jobN builds n jobs whose value is a function of the job key and a
// key-split seed — the canonical deterministic-job shape.
func jobN(n int, base int64) []Job[float64] {
	jobs := make([]Job[float64], n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("job/%d", i)
		jobs[i] = Job[float64]{
			Key: key,
			Run: func(context.Context) (float64, error) {
				rng := rand.New(rand.NewSource(SplitSeed(base, key, 0)))
				s := 0.0
				for k := 0; k < 100; k++ {
					s += rng.Float64()
				}
				return s, nil
			},
		}
	}
	return jobs
}

func values(t *testing.T, res []Result[float64]) []float64 {
	t.Helper()
	out := make([]float64, len(res))
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Key, r.Err)
		}
		out[i] = r.Value
	}
	return out
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		res1, err := Run(context.Background(), jobN(32, 7), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		resN, err := Run(context.Background(), jobN(32, 7), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		v1, vN := values(t, res1), values(t, resN)
		for i := range v1 {
			if v1[i] != vN[i] {
				t.Fatalf("workers=%d: job %d = %v, serial = %v", workers, i, vN[i], v1[i])
			}
		}
	}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	jobs := make([]Job[int], 64)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Key: fmt.Sprintf("%d", i), Run: func(context.Context) (int, error) { return i, nil }}
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Value != i || r.Key != fmt.Sprintf("%d", i) {
			t.Fatalf("result %d = (%s, %d)", i, r.Key, r.Value)
		}
	}
}

func TestRunPanicRecovery(t *testing.T) {
	jobs := []Job[int]{
		{Key: "ok", Run: func(context.Context) (int, error) { return 1, nil }},
		{Key: "boom", Run: func(context.Context) (int, error) { panic("kaboom") }},
		{Key: "ok2", Run: func(context.Context) (int, error) { return 2, nil }},
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 1, OnError: CollectAll})
	if err == nil {
		t.Fatal("expected an error from the panicking job")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("error should identify the panicking job: %v", err)
	}
	if res[0].Value != 1 || res[0].Err != nil || res[2].Value != 2 || res[2].Err != nil {
		t.Errorf("healthy jobs should survive a sibling panic: %+v", res)
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panic") {
		t.Errorf("panic should surface as the job's error, got %v", res[1].Err)
	}
}

func TestRunFailFastSkipsQueuedJobs(t *testing.T) {
	ran := 0
	sentinel := errors.New("sim diverged")
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context) (int, error) { ran++; return 0, nil }},
		{Key: "b", Run: func(context.Context) (int, error) { ran++; return 0, sentinel }},
		{Key: "c", Run: func(context.Context) (int, error) { ran++; return 0, nil }},
		{Key: "d", Run: func(context.Context) (int, error) { ran++; return 0, nil }},
	}
	// workers=1 makes the skip deterministic: c and d are queued behind b.
	res, err := Run(context.Background(), jobs, Options{Workers: 1})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the triggering job error", err)
	}
	if !strings.Contains(err.Error(), "b") {
		t.Errorf("error should carry the job key: %v", err)
	}
	if ran != 2 {
		t.Errorf("fail-fast ran %d jobs, want 2", ran)
	}
	for _, r := range res[2:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("queued job %s should be cancelled, got %v", r.Key, r.Err)
		}
	}
}

func TestRunCollectAllJoinsErrors(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	jobs := []Job[int]{
		{Key: "a", Run: func(context.Context) (int, error) { return 0, e1 }},
		{Key: "b", Run: func(context.Context) (int, error) { return 7, nil }},
		{Key: "c", Run: func(context.Context) (int, error) { return 0, e2 }},
	}
	res, err := Run(context.Background(), jobs, Options{Workers: 4, OnError: CollectAll})
	if !errors.Is(err, e1) || !errors.Is(err, e2) {
		t.Fatalf("joined error should carry both failures: %v", err)
	}
	if res[1].Value != 7 || res[1].Err != nil {
		t.Errorf("healthy job lost: %+v", res[1])
	}
}

func TestRunExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var extra atomic.Int64
	jobs := []Job[int]{
		{Key: "blocker", Run: func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}},
	}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, Job[int]{Key: fmt.Sprintf("tail/%d", i), Run: func(context.Context) (int, error) {
			extra.Add(1)
			return 1, nil
		}})
	}
	go func() {
		<-started
		cancel()
	}()
	res, err := Run(ctx, jobs, Options{Workers: 1})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := extra.Load(); got != 0 {
		t.Errorf("%d queued jobs ran after cancellation", got)
	}
	if !errors.Is(res[0].Err, context.Canceled) {
		t.Errorf("blocker error = %v", res[0].Err)
	}
}

func TestRunProgressAndMetrics(t *testing.T) {
	var m Metrics
	var calls atomic.Int64
	maxDone := 0
	jobs := jobN(16, 3)
	_, err := Run(context.Background(), jobs, Options{
		Workers: 4,
		Metrics: &m,
		Progress: func(done, total int, key string) {
			calls.Add(1)
			if total != len(jobs) {
				t.Errorf("total = %d", total)
			}
			if done > maxDone { // serialized by the pool, no lock needed
				maxDone = done
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != int64(len(jobs)) || maxDone != len(jobs) {
		t.Errorf("progress calls=%d maxDone=%d, want %d", calls.Load(), maxDone, len(jobs))
	}
	if m.JobsDone.Load() != int64(len(jobs)) {
		t.Errorf("JobsDone = %d", m.JobsDone.Load())
	}
}

func TestRunEmptyAndDefaultWorkers(t *testing.T) {
	res, err := Run[int](context.Background(), nil, Options{})
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	// Workers<=0 falls back to GOMAXPROCS; more workers than jobs is fine.
	res2, err := Run(context.Background(), jobN(2, 1), Options{Workers: -3})
	if err != nil || len(res2) != 2 {
		t.Fatalf("default workers: %v %v", res2, err)
	}
}

func TestSplitSeedStableAndKeySensitive(t *testing.T) {
	if SplitSeed(2024, "V_Sp", 0) != SplitSeed(2024, "V_Sp", 0) {
		t.Error("SplitSeed must be deterministic")
	}
	seen := map[int64]string{}
	for _, domain := range []string{"V_Sp", "Vzw_US", "fig01", "fig02", "gnb/cell/ue", ""} {
		for _, index := range []int{0, 1, 2, 10} {
			for _, base := range []int64{0, 1, 2024, -7} {
				s := SplitSeed(base, domain, index)
				id := fmt.Sprintf("%s#%d@%d", domain, index, base)
				if prev, dup := seen[s]; dup {
					t.Errorf("seed collision: %s and %s both map to %d", prev, id, s)
				}
				seen[s] = id
			}
		}
	}
	// Worker identity must never enter the derivation: the function has
	// no worker parameter by design; this pins the (base, domain, index)
	// contract.
	if SplitSeed(1, "a", 0) == SplitSeed(2, "a", 0) {
		t.Error("base must influence the seed")
	}
	if SplitSeed(1, "a", 0) == SplitSeed(1, "b", 0) {
		t.Error("domain must influence the seed")
	}
	if SplitSeed(1, "a", 0) == SplitSeed(1, "a", 1) {
		t.Error("index must influence the seed")
	}
	// Pinned value: every seed in the repository, and so every artifact,
	// hangs off this derivation.
	if got, want := SplitSeed(2024, "gnb/cell/ue", 3), int64(7975866265221783430); got != want {
		t.Errorf("SplitSeed(2024, gnb/cell/ue, 3) = %d, want %d", got, want)
	}
}
