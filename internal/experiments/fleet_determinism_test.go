package experiments

import (
	"context"
	"reflect"
	"testing"

	"github.com/midband5g/midband/internal/fleet"
)

// The sweeps that split into arms must produce identical rows for any
// worker count: every arm derives its randomness from the Options seed
// and its arm index, never from scheduling. runPlan fans a plan's arms
// through the fleet pool and reduces them in arm order, as cmd/figures
// does.
func runPlan[A, R any](t *testing.T, p Plan[A, R], workers int) R {
	t.Helper()
	jobs := make([]fleet.Job[A], p.Arms)
	for i := range jobs {
		jobs[i] = fleet.Job[A]{Run: func(context.Context) (A, error) { return p.Arm(i) }}
	}
	results, err := fleet.Run(context.Background(), jobs, fleet.Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	arms := make([]A, len(results))
	for i, r := range results {
		arms[i] = r.Value
	}
	r, err := p.Reduce(arms)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestExtTDDSweepParallelDeterminism(t *testing.T) {
	p := ExtTDDSweepPlan(Options{Quick: true, Seed: 11})
	serial, parallel := runPlan(t, p, 1), runPlan(t, p, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("TDD sweep diverges:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}

func TestExtABRComparisonParallelDeterminism(t *testing.T) {
	p := ExtABRComparisonPlan(Options{Quick: true, Seed: 11})
	serial, parallel := runPlan(t, p, 1), runPlan(t, p, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("ABR comparison diverges:\nworkers=1: %+v\nworkers=8: %+v", serial, parallel)
	}
}
