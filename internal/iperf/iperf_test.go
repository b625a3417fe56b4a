package iperf

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
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
	s := NewSeries(link, 3*time.Second)
	res, err := Run(link, Config{Duration: 3 * time.Second, Observers: []Observer{s}})
	if err != nil {
		t.Fatal(err)
	}
	if res.SlotDuration != 500*time.Microsecond || s.SlotDuration != res.SlotDuration {
		t.Errorf("slot duration = %v, series %v", res.SlotDuration, s.SlotDuration)
	}
	wantLen := int(3 * time.Second / res.SlotDuration)
	for name, series := range map[string][]float64{
		"dl": s.DLBitsPerSlot, "ul": s.ULBitsPerSlot, "mcs": s.MCS,
		"rank": s.Rank, "rbs": s.RBs, "res": s.REs, "cqi": s.CQI,
		"sinr": s.SINRdB, "mod": s.ModOrder,
		"m256": s.Mod256, "ack": s.ACK,
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
	if got := s.MbpsOf(s.DLBitsPerSlot); math.Abs(got-res.DLMbps) > 1e-6 {
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
	res := NewSeries(link, 4*time.Second)
	if _, err := Run(link, Config{Duration: 4 * time.Second, Observers: []Observer{res}}); err != nil {
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

// kpiTrace is a trace-capture observer: it writes every step's KPI
// records to w and counts them.
type kpiTrace struct {
	w    xcal.TraceWriter
	recs []xcal.SlotKPI
	n    int
}

func (k *kpiTrace) Observe(r *net5g.StepResult) error {
	k.recs = net5g.KPIRecords(*r, k.recs[:0])
	for i := range k.recs {
		if err := k.w.WriteKPI(&k.recs[i]); err != nil {
			return err
		}
	}
	k.n += len(k.recs)
	return nil
}

func TestTraceWriting(t *testing.T) {
	link := testLink(t, "V_Ge", 24)
	var buf bytes.Buffer
	w, err := xcal.NewWriter(&buf, xcal.Meta{Operator: "V_Ge", SlotDuration: link.SlotDuration()})
	if err != nil {
		t.Fatal(err)
	}
	tr := &kpiTrace{w: w}
	if _, err := Run(link, Config{Duration: time.Second, Observers: []Observer{tr}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.n == 0 {
		t.Fatal("the trace observer saw no records")
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
	if n != tr.n {
		t.Errorf("trace has %d KPI frames, observer wrote %d records", n, tr.n)
	}
}

// failing is an observer that fails on its nth step.
type failing struct{ n int }

var errObserver = errors.New("observer failed")

func (f *failing) Observe(*net5g.StepResult) error {
	if f.n--; f.n == 0 {
		return errObserver
	}
	return nil
}

// TestObserverErrorAbortsRun pins the error contract: the first observer
// error ends the session, wrapped so errors.Is still finds it, and the
// observers after the failing one do not see that step.
func TestObserverErrorAbortsRun(t *testing.T) {
	link := testLink(t, "V_Sp", 27)
	s := NewSeries(link, time.Second)
	_, err := Run(link, Config{Duration: time.Second, Observers: []Observer{&failing{n: 5}, s}})
	if !errors.Is(err, errObserver) {
		t.Fatalf("Run error = %v, want the observer's", err)
	}
	if len(s.DLBitsPerSlot) != 4 {
		t.Errorf("series saw %d steps, want the 4 before the failure", len(s.DLBitsPerSlot))
	}
}

func TestThroughputSeriesFeedsVariability(t *testing.T) {
	// End-to-end: the iperf series feeds the paper's V(t) computation and
	// produces a decreasing curve (Fig. 12's qualitative shape).
	link := testLink(t, "O_Sp100", 25)
	res := NewSeries(link, 4*time.Second)
	if _, err := Run(link, Config{Duration: 4 * time.Second, Observers: []Observer{res}}); err != nil {
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

// TestDiscardKeepsTrace pins that observing changes nothing a session
// produces: a traced run writes the same trace bytes, session averages
// and step count with or without a Series observer, and with the
// deprecated Discard set.
func TestDiscardKeepsTrace(t *testing.T) {
	run := func(series, discard bool) (*Result, *Series, []byte) {
		link := testLink(t, "Tmb_US", 31)
		var buf bytes.Buffer
		w, err := xcal.NewWriter(&buf, xcal.Meta{Operator: "Tmb_US", SlotDuration: link.SlotDuration()})
		if err != nil {
			t.Fatal(err)
		}
		obs := []Observer{&kpiTrace{w: w}}
		var s *Series
		if series {
			s = NewSeries(link, time.Second)
			obs = append(obs, s)
		}
		res, err := Run(link, Config{Duration: time.Second, Observers: obs, Discard: discard})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return res, s, buf.Bytes()
	}
	full, s, fullTrace := run(true, false)
	if full.Steps != len(s.DLBitsPerSlot) {
		t.Errorf("steps %d, series %d", full.Steps, len(s.DLBitsPerSlot))
	}
	for _, v := range []struct {
		name            string
		series, discard bool
	}{{"no series", false, false}, {"Discard", false, true}, {"series and Discard", true, true}} {
		res, _, trace := run(v.series, v.discard)
		if !bytes.Equal(trace, fullTrace) {
			t.Errorf("%s changed the trace: %d bytes, want %d", v.name, len(trace), len(fullTrace))
		}
		if *res != *full {
			t.Errorf("%s: result %+v, want %+v", v.name, *res, *full)
		}
	}
}

// TestRunWithoutObserversBuildsNoSeries pins that a session nobody
// observes keeps no per-slot state: a 4 s run allocates as often, and no
// more bytes, than a 1 s run.
func TestRunWithoutObserversBuildsNoSeries(t *testing.T) {
	link := testLink(t, "V_Sp", 32)
	run := func(d time.Duration) func() {
		return func() {
			if _, err := Run(link, Config{Duration: d}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(time.Second)() // settle any state the link builds on first use
	bytesPerRun := func(d time.Duration) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			run(d)()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 4
	}
	short, long := testing.AllocsPerRun(4, run(time.Second)), testing.AllocsPerRun(4, run(4*time.Second))
	if short != long {
		t.Errorf("allocations: %v per 1 s run, %v per 4 s run", short, long)
	}
	if short, long := bytesPerRun(time.Second), bytesPerRun(4*time.Second); long > short+1024 {
		t.Errorf("allocated bytes: %d per 1 s run, %d per 4 s run", short, long)
	}
}

// refResult is what Run returned before observers: the session averages
// and the eleven per-slot series in one value.
type refResult struct {
	Result
	Series
}

// referenceSeries is Run as it was before observers, with the series
// append loop inline in the step loop. FuzzSeriesObserver pins Run plus a
// Series observer to it bit for bit.
func referenceSeries(link *net5g.Link, cfg Config) (*refResult, error) {
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("iperf: duration %v invalid", cfg.Duration)
	}
	demand := cfg.Demand
	if !demand.DL && !demand.UL {
		demand = net5g.Saturate
	}
	steps := int(cfg.Duration / link.SlotDuration())
	if steps < 1 {
		return nil, fmt.Errorf("iperf: duration %v shorter than one slot", cfg.Duration)
	}

	res := &refResult{Result: Result{SlotDuration: link.SlotDuration(), Steps: steps}}
	res.Series.SlotDuration = link.SlotDuration()
	res.DLBitsPerSlot = make([]float64, 0, steps)
	res.ULBitsPerSlot = make([]float64, 0, steps)
	res.MCS = make([]float64, 0, steps)
	res.Rank = make([]float64, 0, steps)
	res.RBs = make([]float64, 0, steps)
	res.REs = make([]float64, 0, steps)
	res.CQI = make([]float64, 0, steps)
	res.SINRdB = make([]float64, 0, steps)
	res.Mod256 = make([]float64, 0, steps)
	res.ModOrder = make([]float64, 0, steps)
	res.ACK = make([]float64, 0, steps)

	var dlBits, ulBits, nrUL, lteUL float64
	var r net5g.StepResult // reused: the link rewrites every field per step
	for i := 0; i < steps; i++ {
		link.StepInto(&r, demand)
		dlBits += float64(r.DLBits)
		ulBits += float64(r.ULBits)
		nrUL += float64(r.NRULBits)
		lteUL += float64(r.LTEULBits)
		res.DLBitsPerSlot = append(res.DLBitsPerSlot, float64(r.DLBits))
		res.ULBitsPerSlot = append(res.ULBitsPerSlot, float64(r.ULBits))

		pc := &r.NR[0]
		res.SINRdB = append(res.SINRdB, pc.Sample.SINRdB)
		res.CQI = append(res.CQI, float64(pc.CQI))
		if pc.DL != nil {
			res.MCS = append(res.MCS, float64(pc.DL.MCS))
			res.Rank = append(res.Rank, float64(pc.DL.Rank))
			res.RBs = append(res.RBs, float64(pc.DL.RBs))
			res.REs = append(res.REs, float64(pc.DL.REs))
			mod := pc.DL.Modulation()
			res.ModOrder = append(res.ModOrder, float64(mod))
			if mod == 8 {
				res.Mod256 = append(res.Mod256, 1)
			} else {
				res.Mod256 = append(res.Mod256, 0)
			}
			if pc.DL.ACK {
				res.ACK = append(res.ACK, 1)
			} else {
				res.ACK = append(res.ACK, 0)
			}
		} else {
			res.MCS = append(res.MCS, 0)
			res.Rank = append(res.Rank, 0)
			res.RBs = append(res.RBs, 0)
			res.REs = append(res.REs, 0)
			res.ModOrder = append(res.ModOrder, 0)
			res.Mod256 = append(res.Mod256, 0)
			res.ACK = append(res.ACK, 1)
		}
	}
	seconds := cfg.Duration.Seconds()
	res.DLMbps = dlBits / seconds / 1e6
	res.ULMbps = ulBits / seconds / 1e6
	res.NRULMbps = nrUL / seconds / 1e6
	res.LTEULMbps = lteUL / seconds / 1e6
	return res, nil
}

// FuzzSeriesObserver checks Run with a Series observer against
// referenceSeries on twin links, bit for bit: the averages, Steps and
// all eleven series, over every operator (mid-band and mmWave), seeds,
// DL/UL/both/fractional-share demands and session lengths.
func FuzzSeriesObserver(f *testing.F) {
	f.Add(uint8(1), int64(21), uint8(2), uint8(0), uint16(400))
	f.Add(uint8(8), int64(31), uint8(1), uint8(0), uint16(97))
	f.Add(uint8(11), int64(5), uint8(0), uint8(0), uint16(1200))
	f.Add(uint8(3), int64(77), uint8(3), uint8(128), uint16(650))
	ops := operators.All()
	f.Fuzz(func(t *testing.T, opIdx uint8, seed int64, mode, share uint8, steps uint16) {
		op := ops[int(opIdx)%len(ops)]
		demand := []net5g.Demand{
			{DL: true}, {UL: true}, net5g.Saturate,
			{DL: true, UL: true, Share: float64(share%100+1) / 100},
		}[mode%4]
		newLink := func() *net5g.Link {
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
		link, refLink := newLink(), newLink()
		cfg := Config{Duration: time.Duration(int(steps)%2000+1) * link.SlotDuration(), Demand: demand}
		want, err := referenceSeries(refLink, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSeries(link, cfg.Duration)
		cfg.Observers = []Observer{s}
		got, err := Run(link, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.SlotDuration != want.Result.SlotDuration || s.SlotDuration != want.Series.SlotDuration || got.Steps != want.Steps {
			t.Fatalf("slot %v/%v steps %d, want slot %v steps %d",
				got.SlotDuration, s.SlotDuration, got.Steps, want.Result.SlotDuration, want.Steps)
		}
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"DLMbps", got.DLMbps, want.DLMbps}, {"ULMbps", got.ULMbps, want.ULMbps},
			{"NRULMbps", got.NRULMbps, want.NRULMbps}, {"LTEULMbps", got.LTEULMbps, want.LTEULMbps},
		} {
			if math.Float64bits(m.got) != math.Float64bits(m.want) {
				t.Fatalf("%s = %v, reference %v", m.name, m.got, m.want)
			}
		}
		for _, c := range []struct {
			name      string
			got, want []float64
		}{
			{"DLBitsPerSlot", s.DLBitsPerSlot, want.DLBitsPerSlot}, {"ULBitsPerSlot", s.ULBitsPerSlot, want.ULBitsPerSlot},
			{"MCS", s.MCS, want.MCS}, {"Rank", s.Rank, want.Rank}, {"RBs", s.RBs, want.RBs},
			{"REs", s.REs, want.REs}, {"CQI", s.CQI, want.CQI}, {"SINRdB", s.SINRdB, want.SINRdB},
			{"Mod256", s.Mod256, want.Mod256}, {"ModOrder", s.ModOrder, want.ModOrder}, {"ACK", s.ACK, want.ACK},
		} {
			if len(c.got) != len(c.want) {
				t.Fatalf("%s: %d samples, reference %d", c.name, len(c.got), len(c.want))
			}
			for i := range c.got {
				if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
					t.Fatalf("%s[%d] = %v, reference %v", c.name, i, c.got[i], c.want[i])
				}
			}
		}
	})
}
