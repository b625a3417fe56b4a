package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/scenario"
)

// conflictingFlags must flag exactly the workload-shaping flags the
// user set, in a stable order, and ignore run-level flags (seed,
// parallel, out, ...) that compose with a scenario spec.
func TestConflictingFlags(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-seed", "7", "-parallel", "4", "-out", "x"}, nil},
		{[]string{"-ops", "V_Sp"}, []string{"-ops"}},
		{[]string{"-faults", "rlf=1e-4", "-duration", "2s"}, []string{"-duration", "-faults"}},
		{
			[]string{"-cell-policy", "rr", "-ues-per-cell", "4", "-ops", "V_Sp", "-seed", "9"},
			[]string{"-ops", "-ues-per-cell", "-cell-policy"},
		},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
		fs.String("ops", "", "")
		fs.Duration("duration", 0, "")
		fs.String("faults", "", "")
		fs.Int("ues-per-cell", 1, "")
		fs.String("cell-policy", "", "")
		fs.Int64("seed", 2024, "")
		fs.Int("parallel", 1, "")
		fs.String("out", "", "")
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("parse %v: %v", c.args, err)
		}
		if got := conflictingFlags(fs.Visit); !reflect.DeepEqual(got, c.want) {
			t.Errorf("conflictingFlags(%v) = %v, want %v", c.args, got, c.want)
		}
	}
}

// scenario.Load resolves pack names before file paths, and its failure
// message lists the shipped packs — the user's menu.
func TestLoadScenario(t *testing.T) {
	s, err := scenario.Load("voip")
	if err != nil || s.Name != "voip" {
		t.Fatalf("scenario.Load(voip) = (%v, %v)", s, err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	canonical, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, canonical, 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := scenario.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, s) {
		t.Error("spec file decoded differently from the pack it was written from")
	}

	if _, err := scenario.Load("no-such-thing"); err == nil || !strings.Contains(err.Error(), "voip") {
		t.Errorf("unknown arg error %v must list the shipped packs", err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema": 1, "bogus": true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Load(bad); err == nil {
		t.Error("invalid spec file accepted")
	}
}

// runScenario end to end at quick scale: the manifest lands in -out,
// stamped with the scenario name and digest.
func TestRunScenarioWritesManifest(t *testing.T) {
	out := t.TempDir()
	spec, err := scenario.Load("voip")
	if err != nil {
		t.Fatal(err)
	}
	var m fleet.Metrics
	runScenario(spec, true, out, 2024, 2, &m, time.Now())

	data, err := os.ReadFile(filepath.Join(out, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest obs.RunManifest
	if err = json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Scenario != "voip" || len(manifest.ScenarioDigest) != 64 {
		t.Errorf("manifest stamped as (%q, %q), want the pack name and a SHA-256 digest", manifest.Scenario, manifest.ScenarioDigest)
	}
	if manifest.Seed != 2024 || manifest.JobsDone == 0 {
		t.Errorf("manifest accounting: seed=%d jobs=%d", manifest.Seed, manifest.JobsDone)
	}
}

// flagRun is one cmd/campaign workload-flag vector, at the flag defaults
// unless set.
type flagRun struct {
	ops        string
	duration   time.Duration
	faults     string
	uesPerCell int
	cellPolicy string
}

// legacyConfig is the CampaignConfig the flag-driven run path built
// before flags compiled into a spec: the reference the spec must match.
func legacyConfig(t *testing.T, f flagRun, dir string) core.CampaignConfig {
	t.Helper()
	var selected []operators.Operator
	if f.ops != "" {
		for _, acr := range strings.Split(f.ops, ",") {
			op, err := operators.ByAcronym(strings.TrimSpace(acr))
			if err != nil {
				t.Fatal(err)
			}
			selected = append(selected, op)
		}
	}
	sched, err := fault.ParseSpec(f.faults)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := gnb.ParsePolicy(f.cellPolicy)
	if err != nil {
		t.Fatal(err)
	}
	return core.CampaignConfig{
		Operators:       selected,
		SessionDuration: f.duration,
		TraceDir:        dir,
		Seed:            2024,
		Workers:         1,
		Faults:          sched,
		UEsPerCell:      f.uesPerCell,
		CellPolicy:      policy,
	}
}

// readTraces returns every file in dir by name and empties the
// directory, so the next run writes to the same paths.
func readTraces(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if files[e.Name()], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// The workload flags compile into a bulk spec whose campaign is the one
// the flag-driven path used to run: DeepEqual statistics (failure
// provenance and contention arm included) and byte-equal traces. Both
// runs write to the same directory so trace paths compare exactly.
func TestFlagSpecEquivalence(t *testing.T) {
	cases := []flagRun{
		{duration: 500 * time.Millisecond},
		{ops: "V_Sp, Tmb_US", duration: 1001 * time.Millisecond},
		{duration: 500 * time.Millisecond, faults: "abort=0.5,trace=1e-3,seed=7"},
		{duration: 500 * time.Millisecond, uesPerCell: 4, cellPolicy: "rr"},
	}
	for _, f := range cases {
		if f.uesPerCell == 0 {
			f.uesPerCell = 1
		}
		if f.cellPolicy == "" {
			f.cellPolicy = "pf"
		}
		t.Run(fmt.Sprintf("%+v", f), func(t *testing.T) {
			dir := t.TempDir()
			legacy, err := core.RunCampaign(legacyConfig(t, f, dir))
			if err != nil {
				t.Fatal(err)
			}
			legacyTraces := readTraces(t, dir)

			spec, err := flagSpec(f.ops, f.duration, f.faults, f.uesPerCell, f.cellPolicy)
			if err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(context.Background(), spec, scenario.Options{
				Seed: 2024, Workers: 4, TraceDir: dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Bulk, legacy) {
				t.Errorf("flag spec campaign diverged from the flag-built campaign:\nspec:   %+v\nlegacy: %+v", res.Bulk, legacy)
			}
			if !reflect.DeepEqual(res.Failures, legacy.Failures) {
				t.Errorf("Result.Failures = %+v, want %+v", res.Failures, legacy.Failures)
			}
			specTraces := readTraces(t, dir)
			if len(specTraces) == 0 || len(specTraces) != len(legacyTraces) {
				t.Fatalf("trace files: spec wrote %d, legacy %d", len(specTraces), len(legacyTraces))
			}
			for name, want := range legacyTraces {
				if !bytes.Equal(specTraces[name], want) {
					t.Errorf("trace %s differs between the spec and the flag-built campaign", name)
				}
			}
		})
	}
}

// Compiling flags into a spec applies the spec's validation: input the
// flag path used to run anyway is now rejected with a clear error.
func TestFlagSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		f    flagRun
		want string
	}{
		{"duplicate op", flagRun{ops: "V_Sp,V_Sp", duration: time.Second, uesPerCell: 1, cellPolicy: "pf"}, "lists V_Sp twice"},
		{"zero duration", flagRun{duration: 0, uesPerCell: 1, cellPolicy: "pf"}, "duration_sec 0 must be positive"},
		{"negative duration", flagRun{duration: -time.Second, uesPerCell: 1, cellPolicy: "pf"}, "must be positive"},
		{"bad policy", flagRun{duration: time.Second, uesPerCell: 1, cellPolicy: "bogus"}, "bogus"},
		{"bad op", flagRun{ops: "V_Sp,Nope", duration: time.Second, uesPerCell: 1, cellPolicy: "pf"}, "Nope"},
		{"bad faults", flagRun{duration: time.Second, faults: "abort=2", uesPerCell: 1, cellPolicy: "pf"}, "abort"},
		{"too many ues", flagRun{duration: time.Second, uesPerCell: 1e8, cellPolicy: "pf"}, "ues_per_cell 100000000 exceeds the limit"},
		{"too long", flagRun{duration: 24 * time.Hour, uesPerCell: 1, cellPolicy: "pf"}, "simulated seconds exceeds the limit"},
	}
	for _, c := range cases {
		f := c.f
		if _, err := flagSpec(f.ops, f.duration, f.faults, f.uesPerCell, f.cellPolicy); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: flagSpec error %v, want one mentioning %q", c.name, err, c.want)
		}
	}

	// The defaults compile to the §2 campaign: all mid-band operators,
	// 3 sessions, no contention arm.
	spec, err := flagSpec("", 10*time.Second, "", 1, "pf")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "campaign" || spec.Sessions.Count != 3 || spec.Duration() != 10*time.Second ||
		len(spec.BandPlan.Operators) != 0 || spec.Population != (scenario.Population{}) {
		t.Errorf("default flags compiled to %+v", spec)
	}
}
