package core

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/operators"
)

func campaignOps(t *testing.T, acrs ...string) []operators.Operator {
	t.Helper()
	var ops []operators.Operator
	for _, acr := range acrs {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops
}

// Regression for the trace-file leak: when the bulk transfer fails after
// the trace file was created, the file must be closed and the partial
// .xcol removed — no half-written captures and no leaked descriptors.
func TestRunCampaignClosesTraceOnError(t *testing.T) {
	dir := t.TempDir()
	before := openFDs(t)
	// A negative duration passes the config default (only 0 is
	// defaulted) and fails inside iperf.Run — after the trace file and
	// its header were already written.
	_, err := RunCampaign(CampaignConfig{
		Operators:           campaignOps(t, "V_Sp"),
		SessionDuration:     -time.Second,
		SessionsPerOperator: 1,
		LatencyProbes:       10,
		TraceDir:            dir,
		Seed:                1,
	})
	if err == nil {
		t.Fatal("campaign with negative duration should fail")
	}
	if !strings.Contains(err.Error(), "duration") {
		t.Errorf("unexpected error: %v", err)
	}
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range entries {
		t.Errorf("partial trace left behind: %s", e.Name())
	}
	if after := openFDs(t); before >= 0 && after > before {
		t.Errorf("file descriptors leaked: %d -> %d", before, after)
	}
}

// openFDs counts this process's open descriptors (-1 when the platform
// doesn't expose them).
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// The fleet contract: a campaign must produce byte-identical aggregates
// and traces no matter how many workers ran it, because every session
// seed is split from the base seed by the job key alone.
func TestRunCampaignParallelDeterminism(t *testing.T) {
	ops := []string{"V_Sp", "Tmb_US", "V_It"}
	run := func(workers int) (*CampaignStats, string) {
		dir := t.TempDir()
		stats, err := RunCampaign(CampaignConfig{
			Operators:           campaignOps(t, ops...),
			SessionDuration:     500 * time.Millisecond,
			SessionsPerOperator: 2,
			LatencyProbes:       200,
			TraceDir:            dir,
			Seed:                42,
			Workers:             workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, dir
	}
	serial, dir1 := run(1)
	parallel, dir8 := run(8)

	// Sessions arrive in deterministic operator order on both runs.
	for i := range serial.Sessions {
		if serial.Sessions[i].Operator != ops[i] || parallel.Sessions[i].Operator != ops[i] {
			t.Fatalf("session order: serial[%d]=%s parallel[%d]=%s want %s",
				i, serial.Sessions[i].Operator, i, parallel.Sessions[i].Operator, ops[i])
		}
	}
	// Trace paths differ by temp dir; normalize before comparing.
	for i := range serial.Sessions {
		serial.Sessions[i].TracePath = filepath.Base(serial.Sessions[i].TracePath)
		parallel.Sessions[i].TracePath = filepath.Base(parallel.Sessions[i].TracePath)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("stats diverge between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	// The traces themselves must be byte-identical too.
	for _, s := range serial.Sessions {
		b1, err := os.ReadFile(filepath.Join(dir1, s.TracePath))
		if err != nil {
			t.Fatal(err)
		}
		b8, err := os.ReadFile(filepath.Join(dir8, s.TracePath))
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b8) {
			t.Errorf("trace %s differs between workers=1 and workers=8", s.TracePath)
		}
	}
}
