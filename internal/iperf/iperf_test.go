package iperf

import (
	"bytes"
	"math"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
)

func testLink(t *testing.T, acr string, seed int64) *net5g.Link {
	t.Helper()
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := op.LinkConfig(operators.Stationary(seed))
	if err != nil {
		t.Fatal(err)
	}
	link, err := net5g.NewLink(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return link
}

func TestRunBasics(t *testing.T) {
	link := testLink(t, "V_Sp", 21)
	res, err := Run(link, Config{Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotDuration != 500*time.Microsecond {
		t.Errorf("slot duration = %v", res.SlotDuration)
	}
	wantLen := int(3 * time.Second / res.SlotDuration)
	for name, series := range map[string][]float64{
		"dl": res.DLBitsPerSlot, "ul": res.ULBitsPerSlot, "mcs": res.MCS,
		"rank": res.Rank, "rbs": res.RBs, "res": res.REs, "cqi": res.CQI,
		"sinr": res.SINRdB, "mod": res.ModOrder,
		"m256": res.Mod256, "ack": res.ACK,
	} {
		if len(series) != wantLen {
			t.Errorf("series %s has %d samples, want %d", name, len(series), wantLen)
		}
	}
	if res.DLMbps < 300 {
		t.Errorf("V_Sp DL = %.0f Mbps, suspiciously low", res.DLMbps)
	}
	if res.ULMbps <= 0 {
		t.Error("UL should be positive")
	}
	// Consistency: average of the series equals the reported mean (up to
	// floating-point summation order).
	if got := res.MbpsOf(res.DLBitsPerSlot); math.Abs(got-res.DLMbps) > 1e-6 {
		t.Errorf("MbpsOf(DL series) = %g, DLMbps = %g", got, res.DLMbps)
	}
}

func TestRunErrors(t *testing.T) {
	link := testLink(t, "V_Sp", 22)
	if _, err := Run(link, Config{}); err == nil {
		t.Error("zero duration should fail")
	}
	if _, err := Run(link, Config{Duration: time.Microsecond}); err == nil {
		t.Error("sub-slot duration should fail")
	}
}

func TestFilterByCQI(t *testing.T) {
	link := testLink(t, "O_Sp100", 23)
	res, err := Run(link, Config{Duration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	good := res.FilterByCQI(func(c int) bool { return c >= 12 })
	bad := res.FilterByCQI(func(c int) bool { return c > 0 && c < 10 })
	if len(good)+len(bad) > len(res.DLBitsPerSlot) {
		t.Fatal("filters overlap")
	}
	if len(good) == 0 {
		t.Fatal("no good-CQI slots; channel miscalibrated")
	}
	// Good-channel slots deliver more than bad-channel slots on average.
	if len(bad) > 100 && res.MbpsOf(good) <= res.MbpsOf(bad) {
		t.Errorf("CQI≥12 throughput %.0f should exceed CQI<10 %.0f",
			res.MbpsOf(good), res.MbpsOf(bad))
	}
}

func TestTraceWriting(t *testing.T) {
	link := testLink(t, "V_Ge", 24)
	var buf bytes.Buffer
	w, err := xcal.NewWriter(&buf, xcal.Meta{Operator: "V_Ge", SlotDuration: link.SlotDuration()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(link, Config{Duration: time.Second, Trace: w, KeepRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("KeepRecords produced nothing")
	}
	r, err := xcal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		ft, err := r.Next()
		if err != nil {
			break
		}
		if ft == xcal.FrameKPI {
			n++
		}
	}
	if n != len(res.Records) {
		t.Errorf("trace has %d KPI frames, kept %d records", n, len(res.Records))
	}
}

func TestThroughputSeriesFeedsVariability(t *testing.T) {
	// End-to-end: the iperf series feeds the paper's V(t) computation and
	// produces a decreasing curve (Fig. 12's qualitative shape).
	link := testLink(t, "O_Sp100", 25)
	res, err := Run(link, Config{Duration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// 4 s at 0.5 ms slots supports scales through 512 ms (k=0..10);
	// Curve drops the 1 s/2 s scales, which have <5 blocks here.
	curve := analysis.Curve(res.ThroughputMbpsSeries(), res.SlotDuration, 12)
	if len(curve) < 11 {
		t.Fatalf("curve too short: %d points", len(curve))
	}
	if curve[len(curve)-1].V >= curve[0].V {
		t.Errorf("V(t) should decrease with scale: %g → %g", curve[0].V, curve[len(curve)-1].V)
	}
}

func TestDefaultDemandSaturates(t *testing.T) {
	link := testLink(t, "T_Ge", 26)
	res, err := Run(link, Config{Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.DLMbps <= 0 || res.ULMbps <= 0 {
		t.Error("default demand should saturate both directions")
	}
}
