package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// TestCampaignXcolTraces runs a campaign and checks its columnar
// capture is complete: readable through the indexed scanner, KPI
// records present, signaling aux frames replayable, and per-slot
// content identical to a row capture of the same session written
// through xcal.NewWriter.
func TestCampaignXcolTraces(t *testing.T) {
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := RunCampaign(CampaignConfig{
		Operators:           []operators.Operator{op},
		SessionDuration:     time.Second,
		SessionsPerOperator: 1,
		LatencyProbes:       100,
		TraceDir:            t.TempDir(),
		Seed:                5,
	})
	if err != nil {
		t.Fatal(err)
	}

	colPath := stats.Sessions[0].TracePath
	if !strings.HasSuffix(colPath, ".xcol") {
		t.Fatalf("campaign wrote %q, want .xcol extension", colPath)
	}
	if format, err := xcol.DetectFormat(colPath); err != nil || format != "xcol" {
		t.Fatalf("DetectFormat(%s) = %q, %v", filepath.Base(colPath), format, err)
	}

	s, f, err := xcol.OpenFile(colPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if s.Sequential() {
		t.Fatal("campaign trace has no usable index — Close did not finalize the footer")
	}
	if s.Meta().Operator != "V_Sp" {
		t.Fatalf("meta operator %q", s.Meta().Operator)
	}
	var colKPIs []xcal.SlotKPI
	for {
		blk, err := s.Next()
		if err != nil {
			break
		}
		colKPIs = blk.AppendRows(colKPIs)
	}
	if len(s.Corrupt()) != 0 {
		t.Fatalf("campaign trace has corrupt blocks: %v", s.Corrupt())
	}
	var sibs int
	err = s.AuxFrames(func(ft xcal.FrameType, pos uint64, payload []byte) error {
		if ft == xcal.FrameSIB1 {
			sibs++
		}
		return nil
	})
	if err != nil || sibs == 0 {
		t.Fatalf("aux replay: sibs=%d err=%v", sibs, err)
	}

	// The campaign's primary session, replayed at its job seed into the
	// row container, must capture identical slots.
	sess, err := NewSession(op, operators.Stationary(fleet.SplitSeed(5, "V_Sp", 0)))
	if err != nil {
		t.Fatal(err)
	}
	var row bytes.Buffer
	w, err := xcal.NewWriter(&row, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunIperf(time.Second, net5g.Saturate, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := xcal.NewReader(bytes.NewReader(row.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var rowKPIs []xcal.SlotKPI
	for {
		ft, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ft == xcal.FrameKPI {
			rowKPIs = append(rowKPIs, r.KPI)
		}
	}
	if len(colKPIs) == 0 || len(colKPIs) != len(rowKPIs) {
		t.Fatalf("campaign captured %d KPIs, row capture %d", len(colKPIs), len(rowKPIs))
	}
	for i := range colKPIs {
		if colKPIs[i] != rowKPIs[i] {
			t.Fatalf("record %d diverges between containers: %+v vs %+v", i, colKPIs[i], rowKPIs[i])
		}
	}

	// The aggregate stats must not depend on the capture at all.
	if stats.Sessions[0].DLMbps != res.DLMbps {
		t.Fatalf("DLMbps differs between the campaign and the row capture: %v vs %v",
			stats.Sessions[0].DLMbps, res.DLMbps)
	}
}

// Campaigns write only .xcol: any other TraceFormat fails before a
// session runs or a file is written.
func TestRunCampaignRejectsRowTraceFormat(t *testing.T) {
	dir := t.TempDir()
	var m fleet.Metrics
	_, err := RunCampaign(CampaignConfig{
		Operators:       campaignOps(t, "V_Sp"),
		SessionDuration: time.Second,
		TraceDir:        dir,
		TraceFormat:     "xcal",
		Metrics:         &m,
	})
	if err == nil || !strings.Contains(err.Error(), `"xcal"`) {
		t.Fatalf("TraceFormat xcal returned %v, want an unsupported-format error", err)
	}
	if n := m.JobsDone.Load(); n != 0 {
		t.Errorf("%d sessions ran before the format was rejected", n)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected campaign wrote %d files", len(entries))
	}
}
