package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/midband5g/midband/internal/experiments"
	"github.com/midband5g/midband/internal/obs"
)

// The figures runner must emit byte-identical stdout and CSV files for
// any -parallel value: every arm seeds itself from the base seed and its
// arm index, never from scheduling, and each figure is reduced from its
// arms and rendered in figure order. fig17 is a split figure with a CSV,
// so its reducer path is covered too.
func TestRunParallelDeterminism(t *testing.T) {
	render := func(parallel int) (string, map[string]string) {
		var out bytes.Buffer
		csvDir := t.TempDir()
		opt := options{
			quick:    true,
			seed:     2024,
			only:     "fig11,fig17,extb,extd",
			csvDir:   csvDir,
			parallel: parallel,
		}
		if err := run(opt, &out, io.Discard); err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		entries, err := os.ReadDir(csvDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() == "manifest.json" {
				// The manifest records wall-clock metadata, so it is
				// compared by config digest below, not byte-for-byte.
				man, err := obs.ReadManifest(filepath.Join(csvDir, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				files[e.Name()] = man.ConfigDigest
				continue
			}
			b, err := os.ReadFile(filepath.Join(csvDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return out.String(), files
	}

	serialOut, serialCSV := render(1)
	parallelOut, parallelCSV := render(8)

	if serialOut == "" {
		t.Fatal("no output rendered")
	}
	if serialOut != parallelOut {
		t.Errorf("stdout diverges between -parallel 1 and -parallel 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialOut, parallelOut)
	}
	if len(serialCSV) == 0 {
		t.Fatal("no CSV files written")
	}
	if len(serialCSV) != len(parallelCSV) {
		t.Fatalf("CSV file sets differ: %d vs %d", len(serialCSV), len(parallelCSV))
	}
	for name, body := range serialCSV {
		if parallelCSV[name] != body {
			t.Errorf("CSV %s diverges between -parallel 1 and -parallel 8", name)
		}
	}
}

// -only subsets keep working through the pooled runner.
func TestRunSubsetSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run(options{quick: true, seed: 2024, only: "fig11", parallel: 2}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("fig11 subset produced no output")
	}
}

// An unknown -only key is an error naming the valid keys, raised before
// anything runs or any manifest is written; "none" is the explicit empty
// selection: it prints nothing and succeeds.
func TestRunRejectsUnknownOnlyKey(t *testing.T) {
	for _, only := range []string{"bogus", "fig1", "fig11,fig99", " none , nonsense "} {
		csvDir := filepath.Join(t.TempDir(), "csv")
		var out bytes.Buffer
		err := run(options{quick: true, seed: 2024, only: only, csvDir: csvDir, parallel: 1}, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown key") || !strings.Contains(err.Error(), "fig11") {
			t.Fatalf("-only %q: err = %v, want an unknown-key error listing the valid keys", only, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-only %q: printed %q before failing", only, out.String())
		}
		if _, err := os.Stat(csvDir); !os.IsNotExist(err) {
			t.Fatalf("-only %q: CSV directory created (stat err %v)", only, err)
		}
	}
	for _, only := range []string{"none", "NONE", " none ,"} {
		var out bytes.Buffer
		if err := run(options{quick: true, seed: 2024, only: only, parallel: 2}, &out, io.Discard); err != nil {
			t.Fatalf("-only %q: %v", only, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-only %q printed %q, want nothing", only, out.String())
		}
	}
}

// TestArtifactsByteIdentical guards the committed artifacts against the
// fault-injection plumbing (and any future strictly-opt-in feature): a
// full-fidelity regeneration with faults disabled must reproduce the
// checked-in CSV byte-for-byte, and the checked-in manifest must still
// verify against its recorded config — the Faults field is omitempty,
// so a disabled schedule cannot move the config digest.
func TestArtifactsByteIdentical(t *testing.T) {
	csvDir := t.TempDir()
	// fig11 is full fidelity even outside -quick, so its committed CSV is
	// exactly reproducible in test time.
	opt := options{seed: 2024, only: "fig11", csvDir: csvDir, parallel: 2}
	if err := run(opt, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(filepath.Join(csvDir, "fig11.csv"))
	if err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join("..", "..", "results", "fig11.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, committed) {
		t.Error("regenerated fig11.csv differs from the committed artifact: a disabled feature perturbed the output")
	}
	// ReadManifest recomputes the config digest from the recorded config
	// and fails on mismatch, so this line alone asserts digest stability.
	man, err := obs.ReadManifest(filepath.Join("..", "..", "results", "manifest.json"))
	if err != nil {
		t.Fatalf("committed manifest no longer verifies: %v", err)
	}
	// The manifest must come from a run of the whole plan as it stands:
	// every arm of every figure is one job.
	var cfg manifestConfig
	if err := json.Unmarshal(man.Config, &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Only != "" || cfg.Quick {
		t.Fatalf("committed manifest records -only %q, -quick %v; want a full run", cfg.Only, cfg.Quick)
	}
	jobs := 0
	for _, f := range figures(experiments.Options{Seed: cfg.Seed}, nil, nil, nil) {
		jobs += f.arms
	}
	if man.JobsDone != int64(jobs) {
		t.Errorf("committed manifest records %d jobs done, the full plan has %d: regenerate it with figures -seed %d -parallel 2 -csv results",
			man.JobsDone, jobs, cfg.Seed)
	}
}
