package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcol"
)

// writeTrace captures a one-second V_Sp session (several KPI blocks)
// into a columnar trace file in dir.
func writeTrace(t *testing.T, dir string) string {
	t.Helper()
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(op, operators.Stationary(3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "V_Sp.xcol")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := xcol.NewWriter(f, sess.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunIperf(time.Second, net5g.Saturate, w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func dumpString(t *testing.T, path string, records int, blocks bool) string {
	t.Helper()
	var out bytes.Buffer
	if err := dump(&out, path, records, blocks); err != nil {
		t.Fatalf("dump %s: %v", filepath.Base(path), err)
	}
	return out.String()
}

// A corrupt KPI block costs only its own records: the dump still prints
// the configuration and the statistics of the other blocks, and names
// the skipped block.
func TestDumpSkipsCorruptKPIBlock(t *testing.T) {
	path := writeTrace(t, t.TempDir())
	s, f, err := xcol.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kpi []xcol.IndexEntry
	for _, e := range s.Index() {
		if e.Kind == 2 { // KPI
			kpi = append(kpi, e)
		}
	}
	f.Close()
	if len(kpi) < 2 {
		t.Fatalf("trace has %d KPI blocks, want several", len(kpi))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[kpi[1].Offset+13+uint64(kpi[1].Len/2)] ^= 0xff // mid-payload, past the 13-byte block header
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	out := dumpString(t, path, 0, false)
	for _, want := range []string{"cell 100: n78 90 MHz", "records=", "PCell: SINR", "[!] skipped block 2 at offset"} {
		if !strings.Contains(out, want) {
			t.Errorf("dump output lacks %q:\n%s", want, out)
		}
	}
}

// A row trace made by -convert dumps to the same KPI and configuration
// text as its columnar source; only the path line differs.
func TestDumpRowMatchesCol(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the dump puts its columnar copy of the row trace
	dir := t.TempDir()
	col := writeTrace(t, dir)
	row := filepath.Join(dir, "V_Sp.xcal")
	if dir, _, err := xcol.ConvertFile(col, row); err != nil || dir != "xcol→xcal" {
		t.Fatalf("convert: %s, %v", dir, err)
	}
	colOut := dumpString(t, col, 5, false)
	rowOut := dumpString(t, row, 5, false)
	if !strings.HasPrefix(colOut, col+"\n") || !strings.HasPrefix(rowOut, row+"\n") {
		t.Fatalf("dumps do not start with their paths:\n%s\n%s", colOut, rowOut)
	}
	colBody := strings.TrimPrefix(colOut, col+"\n")
	rowBody := strings.TrimPrefix(rowOut, row+"\n")
	if colBody != rowBody {
		t.Errorf("row dump differs from its columnar source:\nxcol:\n%s\nxcal:\n%s", colBody, rowBody)
	}
	if !strings.Contains(colBody, "#5 slot=") || !strings.Contains(colBody, "V(128ms)") {
		t.Errorf("dump lacks records or statistics:\n%s", colBody)
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("dump left %d temporary files behind", len(left))
	}
}
