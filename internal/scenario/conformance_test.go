// Scenario conformance: every shipped pack runs at Quick scale and its
// rendered report is pinned byte-for-byte against a golden file, the
// bulk spec path is proven equivalent to the core.RunCampaign it maps
// to, and every pack is byte-identical across worker counts —
// with and without fault injection. Regenerate goldens after an
// intentional simulation change with:
//
//	UPDATE_GOLDEN=1 go test ./internal/scenario -run TestPackGolden
package scenario_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/report"
	"github.com/midband5g/midband/internal/scenario"
	"github.com/midband5g/midband/internal/simtest"
)

// renderQuick runs a pack's Quick-scale spec and returns the rendered
// scenario report — the byte artifact the golden files pin.
func renderQuick(t *testing.T, name string, workers int, seed int64) []byte {
	t.Helper()
	s, err := scenario.Pack(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), s.QuickScale(), scenario.Options{Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	report.Scenario(&buf, res)
	return buf.Bytes()
}

// TestPackGolden pins every shipped pack's Quick-scale report
// byte-for-byte. A diff here means the simulation's observable output
// changed: either fix the regression or, for an intentional model
// change, regenerate with UPDATE_GOLDEN=1 and review the diff like any
// other artifact change.
func TestPackGolden(t *testing.T) {
	for _, name := range scenario.PackNames() {
		t.Run(name, func(t *testing.T) {
			got := renderQuick(t, name, 1, 0)
			path := filepath.Join("testdata", "golden", name+".golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v — run UPDATE_GOLDEN=1 go test ./internal/scenario -run TestPackGolden", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("report drifted from %s:\n--- golden\n%s\n--- got\n%s", path, want, got)
			}
		})
	}
}

// TestPackWorkerDeterminism: the report is byte-identical for workers=1
// and workers=8 — aggregation happens in submission order, never in
// completion order.
func TestPackWorkerDeterminism(t *testing.T) {
	for _, name := range scenario.PackNames() {
		t.Run(name, func(t *testing.T) {
			serial := renderQuick(t, name, 1, 7)
			parallel := renderQuick(t, name, 8, 7)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("workers=1 and workers=8 disagree:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
			}
		})
	}
}

// TestBulkSpecLegacyEquivalence: a bulk spec must produce the exact
// CampaignStats of the core.RunCampaign configuration it describes —
// the scenario layer adds a schema, not a second simulator.
func TestBulkSpecLegacyEquivalence(t *testing.T) {
	spec, err := scenario.Decode([]byte(`{
		"schema": 1, "name": "legacy-bridge",
		"traffic": {"app": "bulk"},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["V_Sp", "Tmb_US"]},
		"population": {},
		"sessions": {"count": 2, "duration_sec": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}

	res, err := scenario.Run(context.Background(), spec, scenario.Options{Seed: 2024, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	vzw, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	tmb, err := operators.ByAcronym("Tmb_US")
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := core.RunCampaign(core.CampaignConfig{
		Operators:           []operators.Operator{vzw, tmb},
		SessionDuration:     2 * time.Second,
		SessionsPerOperator: 2,
		Seed:                2024,
		Workers:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Bulk, legacy) {
		t.Errorf("spec campaign diverged from the flag-built campaign:\nspec:   %+v\nlegacy: %+v", res.Bulk, legacy)
	}
}

// A faulted bulk spec carries its failure provenance on Result.Failures
// like every other app, so the rendered report lists the lost sessions.
func TestBulkFailuresReachReport(t *testing.T) {
	spec, err := scenario.Decode([]byte(`{
		"schema": 1, "name": "bulk-abort",
		"traffic": {"app": "bulk"},
		"band_plan": {"operators": ["V_Sp", "Tmb_US"]},
		"faults": "abort=1",
		"sessions": {"count": 2, "duration_sec": 0.2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), spec, scenario.Options{Seed: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 4 || !reflect.DeepEqual(res.Failures, res.Bulk.Failures) {
		t.Fatalf("Result.Failures = %+v, want the 4 aborted sessions of Bulk.Failures %+v", res.Failures, res.Bulk.Failures)
	}
	var buf bytes.Buffer
	report.Scenario(&buf, res)
	out := buf.String()
	for _, want := range []string{"failed sessions: 4", "V_Sp/0", "Tmb_US/1", "stage=abort"} {
		if !strings.Contains(out, want) {
			t.Errorf("bulk report missing %q:\n%s", want, out)
		}
	}
}

// CampaignConfig is the bulk-only bridge: other apps have no legacy
// campaign shape, and the population section must carry through.
func TestCampaignConfigMapping(t *testing.T) {
	s, err := scenario.Decode([]byte(`{
		"schema": 1, "name": "cfg",
		"traffic": {"app": "bulk"},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["V_Sp"]},
		"population": {"ues_per_cell": 4, "cell_policy": "rr"},
		"sessions": {"count": 3, "duration_sec": 2}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.CampaignConfig(scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 2024 {
		t.Errorf("default seed %d, want 2024", cfg.Seed)
	}
	if cfg.SessionsPerOperator != 3 || cfg.SessionDuration != 2*time.Second {
		t.Errorf("sessions mapped to (%d, %v)", cfg.SessionsPerOperator, cfg.SessionDuration)
	}
	if cfg.UEsPerCell != 4 || len(cfg.Operators) != 1 {
		t.Errorf("population/band plan mapped to ues=%d ops=%d", cfg.UEsPerCell, len(cfg.Operators))
	}

	web, err := scenario.Pack("web-browsing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := web.CampaignConfig(scenario.Options{}); err == nil {
		t.Error("a non-bulk app accepted a legacy campaign mapping")
	}
}

// finite rejects NaN and ±Inf — every reported KPI must be a number.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkResultInvariants asserts the structural facts every scenario
// result must satisfy regardless of app, seed, faults or contention.
func checkResultInvariants(t *testing.T, s *scenario.Spec, res *scenario.Result) {
	t.Helper()
	if res.Name != s.Name || res.App != s.Traffic.App {
		t.Errorf("result identity (%s, %s) does not match spec (%s, %s)", res.Name, res.App, s.Name, s.Traffic.App)
	}
	digest, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != digest {
		t.Errorf("result digest %s != spec digest %s", res.Digest, digest)
	}
	if res.BackoffSim < 0 {
		t.Errorf("negative simulated backoff %v", res.BackoffSim)
	}
	if s.Faults == "" && len(res.Failures) > 0 {
		t.Errorf("%d failures without fault injection", len(res.Failures))
	}
	for _, r := range res.Reports {
		if r.Sessions < 0 || r.Sessions > s.Sessions.Count {
			t.Errorf("%s: %d sessions outside [0, %d]", r.Operator, r.Sessions, s.Sessions.Count)
		}
		for name, v := range map[string]float64{
			"pages": r.Pages, "load mean": r.PageLoadMeanMs, "load p95": r.PageLoadP95Ms,
			"lat mean": r.LatencyMeanMs, "lat p95": r.LatencyP95Ms, "mos": r.MOS,
			"late": r.LateFrac, "dl": r.DLMbps, "ul": r.ULMbps, "nr ul": r.NRULMbps, "lte ul": r.LTEULMbps,
		} {
			if !finite(v) || v < 0 {
				t.Errorf("%s: %s = %g, want a finite non-negative KPI", r.Operator, name, v)
			}
		}
		if r.MOS > 5 {
			t.Errorf("%s: MOS %g above the E-model ceiling", r.Operator, r.MOS)
		}
		if r.LateFrac > 1 {
			t.Errorf("%s: late fraction %g > 1", r.Operator, r.LateFrac)
		}
		if s.Traffic.App == scenario.AppUplink && s.BandPlan.CompareLTE {
			if sum := r.NRULMbps + r.LTEULMbps; math.Abs(sum-r.ULMbps) > 1e-6*math.Max(1, r.ULMbps) {
				t.Errorf("%s: NR+LTE legs %.6f != UL %.6f", r.Operator, sum, r.ULMbps)
			}
		}
	}
	if v := res.Video; v != nil {
		for _, c := range v.Cells {
			if c.Sessions < 0 || c.Sessions > s.Sessions.Count {
				t.Errorf("cell %s/%s/%s: %d sessions outside [0, %d]", c.Operator, c.ABR, c.Edge, c.Sessions, s.Sessions.Count)
			}
			if c.Sessions == 0 {
				continue
			}
			if c.NormBitrate < 0 || c.NormBitrate > 1 || !finite(c.NormBitrate) {
				t.Errorf("cell %s/%s/%s: norm bitrate %g outside [0,1]", c.Operator, c.ABR, c.Edge, c.NormBitrate)
			}
			if c.StallPct < 0 || c.StallPct > 100 {
				t.Errorf("cell %s/%s/%s: stall %g%% outside [0,100]", c.Operator, c.ABR, c.Edge, c.StallPct)
			}
			if c.Edge == scenario.EdgeOff && c.EdgeHitPct != 0 {
				t.Errorf("cell %s/%s EDGE_OFF reports %.1f%% cache hits", c.Operator, c.ABR, c.EdgeHitPct)
			}
			if len(c.QoEs) != s.Sessions.Count {
				t.Errorf("cell %s/%s/%s: %d QoE samples, want one per session (%d)", c.Operator, c.ABR, c.Edge, len(c.QoEs), s.Sessions.Count)
			}
		}
		for _, p := range v.Pairs {
			if p.Stats.N < 0 || p.Stats.N > s.Sessions.Count {
				t.Errorf("pair %s/%s: n=%d outside [0, %d]", p.Operator, p.ABR, p.Stats.N, s.Sessions.Count)
			}
		}
	}
	for _, mu := range res.MultiUE {
		if mu.UEs != s.Population.UEsPerCell {
			t.Errorf("multi-UE arm ran %d UEs, spec says %d", mu.UEs, s.Population.UEsPerCell)
		}
		if mu.CellMbps < 0 || !finite(mu.CellMbps) {
			t.Errorf("%s: cell goodput %g", mu.Operator, mu.CellMbps)
		}
		if n := float64(mu.UEs); mu.JainIndex < 1/n-1e-9 || mu.JainIndex > 1+1e-9 {
			t.Errorf("%s: Jain index %g outside [1/%d, 1]", mu.Operator, mu.JainIndex, mu.UEs)
		}
	}
	for _, f := range res.Failures {
		switch f.Stage {
		case "abort", "panic", "trace-io", "cancelled", "error":
		default:
			t.Errorf("failure %s has unknown stage %q", f.Key, f.Stage)
		}
		if f.Attempts < 1 {
			t.Errorf("failure %s reports %d attempts", f.Key, f.Attempts)
		}
	}
}

// TestPackInvariantSweep runs every pack across a seed sweep and checks
// the structural invariants — the pack-level analogue of the simtest
// suite's link-level properties.
func TestPackInvariantSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, name := range scenario.PackNames() {
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Pack(name)
			if err != nil {
				t.Fatal(err)
			}
			q := s.QuickScale()
			simtest.Run(t, "scenario/"+name, 2, func(t *testing.T, seed int64) {
				res, err := scenario.Run(context.Background(), q, scenario.Options{Seed: seed, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				checkResultInvariants(t, q, res)
			})
		})
	}
}

// TestPackFaultSweep arms aggressive fault injection on every pack and
// checks graceful degradation: the run completes, failures carry
// provenance, and the outcome is still byte-deterministic across
// worker counts.
func TestPackFaultSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep")
	}
	for _, name := range scenario.PackNames() {
		t.Run(name, func(t *testing.T) {
			s, err := scenario.Pack(name)
			if err != nil {
				t.Fatal(err)
			}
			q := s.QuickScale()
			q.Faults = "abort=0.3,panic=0.3,attempts=2,seed=11"
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}

			var m fleet.Metrics
			run := func(workers int) ([]byte, *scenario.Result) {
				res, err := scenario.Run(context.Background(), q, scenario.Options{Seed: 5, Workers: workers, Metrics: &m})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				report.Scenario(&buf, res)
				return buf.Bytes(), res
			}
			serial, res := run(1)
			parallel, _ := run(8)
			if !bytes.Equal(serial, parallel) {
				t.Errorf("faulted run diverges across worker counts:\n--- serial\n%s\n--- parallel\n%s", serial, parallel)
			}
			checkResultInvariants(t, q, res)
			for _, f := range res.Failures {
				if f.Stage != "abort" && f.Stage != "panic" {
					t.Errorf("failure %s: stage %q, want abort or panic (the only armed classes)", f.Key, f.Stage)
				}
			}
		})
	}
}

// TestPackContentionSweep arms the multi-UE population section on an
// app pack across every cell policy: each policy must produce a
// contention arm per operator, and policy identity must be preserved.
func TestPackContentionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("contention sweep")
	}
	policies := map[string]string{
		"eq": "equal-share",
		"pf": "proportional-fair",
		"mt": "max-rate",
		"rr": "round-robin",
	}
	for policy, display := range policies {
		t.Run(policy, func(t *testing.T) {
			s, err := scenario.Pack("voip")
			if err != nil {
				t.Fatal(err)
			}
			q := s.QuickScale()
			q.Population.UEsPerCell = 4
			q.Population.CellPolicy = policy
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(context.Background(), q, scenario.Options{Seed: 3, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			checkResultInvariants(t, q, res)
			if len(res.MultiUE) != len(q.BandPlan.Operators) {
				t.Fatalf("%d contention reports for %d operators", len(res.MultiUE), len(q.BandPlan.Operators))
			}
			for _, mu := range res.MultiUE {
				if mu.Policy != display {
					t.Errorf("%s: contention arm ran policy %q, want %q", mu.Operator, mu.Policy, display)
				}
			}
		})
	}
}

// TestRunRejectsInvalidSpec: Run re-validates, so a spec mutated into
// contradiction after Decode fails fast instead of simulating garbage.
func TestRunRejectsInvalidSpec(t *testing.T) {
	s, err := scenario.Pack("voip")
	if err != nil {
		t.Fatal(err)
	}
	q := s.QuickScale()
	q.Traffic.App = "ftp"
	if _, err := scenario.Run(context.Background(), q, scenario.Options{}); err == nil {
		t.Fatal("Run accepted a spec with an unknown app")
	}
}

// TestRunHonorsCancellation: a pre-cancelled context aborts the run
// with an error instead of returning partial results.
func TestRunHonorsCancellation(t *testing.T) {
	s, err := scenario.Pack("web-browsing")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := scenario.Run(ctx, s.QuickScale(), scenario.Options{Workers: 2}); err == nil {
		t.Fatal("Run returned results under a cancelled context")
	}
}

// TestVideoPairSharing pins the paired-arm design: EDGE_ON lifts QoE
// over EDGE_OFF on the mec-video pack (the cache only removes request
// RTT, both arms share channel realizations), and the pairs cover the
// full operator × ABR grid.
func TestVideoPairSharing(t *testing.T) {
	s, err := scenario.Pack("mec-video")
	if err != nil {
		t.Fatal(err)
	}
	q := s.QuickScale()
	res, err := scenario.Run(context.Background(), q, scenario.Options{Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := len(q.BandPlan.Operators) * len(q.Video.ABRs)
	if len(res.Video.Pairs) != wantPairs {
		t.Fatalf("%d pairs, want the full %d-cell grid", len(res.Video.Pairs), wantPairs)
	}
	lifted := 0
	for _, p := range res.Video.Pairs {
		if p.Stats.N == 0 {
			t.Errorf("pair %s/%s has no paired sessions", p.Operator, p.ABR)
		}
		if p.QoEOn >= p.QoEOff {
			lifted++
		}
	}
	if lifted < wantPairs/2 {
		t.Errorf("edge caching lifted QoE in only %d/%d cells — the paired seeds are likely broken", lifted, wantPairs)
	}
}

func fullSpec(b *testing.B) *scenario.Spec {
	s, err := scenario.Pack("web-browsing")
	if err != nil {
		b.Fatal(err)
	}
	return s.QuickScale()
}

// BenchmarkScenarioCampaign is the benchgate entry for the scenario
// runner: one Quick-scale web pack end to end.
func BenchmarkScenarioCampaign(b *testing.B) {
	s := fullSpec(b)
	// One untimed run first, so first-use initialisation stays out of
	// allocs/op, which then reads the same at any -benchtime.
	if _, err := scenario.Run(context.Background(), s, scenario.Options{Seed: 2024, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Run(context.Background(), s, scenario.Options{Seed: 2024, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
