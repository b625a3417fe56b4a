package channel

import (
	"math"
	"testing"
	"time"
)

func testConfig(seed int64) Config {
	return Config{
		CarrierFreqMHz: 3500,
		Seed:           seed,
		Route:          Stationary(Point{X: 100}),
		Deployment: Deployment{
			Sites:           []Point{{0, 0}},
			TxPowerDBmPerRE: 18,
		},
	}
}

func TestChannelDeterminism(t *testing.T) {
	a, err := New(testConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(testConfig(7))
	for i := 0; i < 1000; i++ {
		sa, sb := a.Step(), b.Step()
		if sa != sb {
			t.Fatalf("slot %d: same seed diverged: %+v vs %+v", i, sa, sb)
		}
	}
	c, _ := New(testConfig(8))
	diff := false
	for i := 0; i < 100; i++ {
		if a.Step() != c.Step() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds should diverge")
	}
}

func TestChannelStationaryStats(t *testing.T) {
	ch, err := New(testConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		s := ch.Step()
		sum += s.SINRdB
		sumsq += s.SINRdB * s.SINRdB
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	// Deterministic geometry: RSRP = 18 − PL(100 m, 3.5 GHz); PL =
	// 28 + 22·2 + 20·log10(3.5) ≈ 82.9 dB → RSRP ≈ −64.9 dBm. Noise+interf
	// ≈ −109.7 dBm → mean SINR ≈ 44.8 dB (single cell, no interference).
	if mean < 40 || mean > 50 {
		t.Errorf("stationary mean SINR = %.1f dB, want ≈ 44.8", mean)
	}
	// Total variation = sqrt(shadow² + fast²) = sqrt(16+4) ≈ 4.5 dB.
	if std < 3 || std > 6 {
		t.Errorf("stationary SINR std = %.1f dB, want ≈ 4.5", std)
	}
}

func TestChannelInterferenceLowersSINR(t *testing.T) {
	solo := testConfig(1)
	dense := testConfig(1)
	dense.Deployment.Sites = []Point{{0, 0}, {180, 0}}
	a, _ := New(solo)
	b, _ := New(dense)
	var ma, mb float64
	const n = 50000
	for i := 0; i < n; i++ {
		ma += a.Step().SINRdB / n
		mb += b.Step().SINRdB / n
	}
	if mb >= ma {
		t.Errorf("neighbor-cell interference should lower SINR: solo %.1f, dense %.1f", ma, mb)
	}
}

func TestMobilityIncreasesShortScaleVariation(t *testing.T) {
	mk := func(speed float64) []float64 {
		cfg := testConfig(3)
		cfg.Route = Route{Waypoints: []Point{{100, 0}, {100, 2000}}, SpeedMPS: speed}
		ch, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 40000)
		for i := range out {
			out[i] = ch.Step().SINRdB
		}
		return out
	}
	shortVar := func(xs []float64) float64 {
		// mean |x_{i+1}-x_i| at slot scale: a direct proxy for the
		// paper's V(τ) at the finest scale.
		tot := 0.0
		for i := 1; i < len(xs); i++ {
			tot += math.Abs(xs[i] - xs[i-1])
		}
		return tot / float64(len(xs)-1)
	}
	still := shortVar(mk(0))
	drive := shortVar(mk(MobilityDriving))
	if drive <= still {
		t.Errorf("driving slot-scale variation %.3f should exceed stationary %.3f", drive, still)
	}
}

func TestBlockageOutagesScaleWithSpeed(t *testing.T) {
	mk := func(speed float64) float64 {
		cfg := testConfig(9)
		cfg.Blockage = &DefaultBlockage
		if speed > 0 {
			cfg.Route = Route{Waypoints: []Point{{50, 0}, {50, 5000}}, SpeedMPS: speed}
		}
		ch, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		outages := 0
		const n = 400000 // 200 s
		for i := 0; i < n; i++ {
			if ch.Step().Outage {
				outages++
			}
		}
		return float64(outages) / n
	}
	still := mk(0)
	drive := mk(MobilityDriving)
	if drive <= still {
		t.Errorf("driving outage fraction %.4f should exceed stationary %.4f", drive, still)
	}
	if still <= 0 {
		t.Error("stationary mmWave should still see some outage")
	}
}

func TestRSRQFromSINR(t *testing.T) {
	if got := RSRQFromSINR(math.Inf(-1)); got != -20 {
		t.Errorf("outage RSRQ = %g, want -20", got)
	}
	prev := -25.0
	for s := -15.0; s <= 40; s += 5 {
		r := RSRQFromSINR(s)
		if r < -20 || r > -3 {
			t.Errorf("RSRQ(%g) = %g outside reportable range", s, r)
		}
		if r < prev {
			t.Errorf("RSRQ should be nondecreasing in SINR: %g then %g", prev, r)
		}
		prev = r
	}
	// The paper's good-coverage threshold: decent SINR must clear −12 dB.
	if RSRQFromSINR(15) < -12 {
		t.Error("15 dB SINR should correspond to RSRQ ≥ -12 (good coverage)")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                     // no frequency
		{CarrierFreqMHz: 3500}, // no route/deployment
		func() Config { c := testConfig(0); c.Route = Route{SpeedMPS: -1, Waypoints: []Point{{}}}; return c }(),
		func() Config { c := testConfig(0); c.Route = Route{SpeedMPS: 2, Waypoints: []Point{{}}}; return c }(),
		func() Config { c := testConfig(0); c.Deployment.Sites = nil; return c }(),
		func() Config {
			c := testConfig(0)
			c.Blockage = &BlockageConfig{NLOSLossDB: -1}
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestRoutePosition(t *testing.T) {
	r := Route{Waypoints: []Point{{0, 0}, {100, 0}}, SpeedMPS: 10}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	w := walker(t, r)
	if got := w.position(5); math.Abs(got.X-50) > 1e-9 {
		t.Errorf("position at 5s = %+v, want X=50", got)
	}
	// Ping-pong: at t=15s the UE has turned around and is heading back.
	if got := w.position(15); math.Abs(got.X-50) > 1e-9 {
		t.Errorf("position at 15s = %+v, want X=50 (returning)", got)
	}
	if got := w.position(20); math.Abs(got.X-0) > 1e-9 {
		t.Errorf("position at 20s = %+v, want X=0", got)
	}
	if w.segTotal != 100 {
		t.Errorf("route length = %g, want 100", w.segTotal)
	}
}

func TestPathLossMonotone(t *testing.T) {
	prev := 0.0
	for d := 10.0; d < 2000; d *= 1.5 {
		pl := pathLossDB(d, 3500)
		if pl <= prev {
			t.Errorf("path loss at %gm = %g not increasing", d, pl)
		}
		prev = pl
	}
	// mmWave at 28 GHz pays ≈ 18 dB more than 3.5 GHz at equal distance.
	diff := pathLossDB(100, 28000) - pathLossDB(100, 3500)
	if math.Abs(diff-20*math.Log10(8)) > 1e-9 {
		t.Errorf("FR2 penalty = %g dB, want %g", diff, 20*math.Log10(8))
	}
	// Distances below 10 m clamp.
	if pathLossDB(1, 3500) != pathLossDB(10, 3500) {
		t.Error("sub-10m distances should clamp")
	}
}

func TestSlotCounter(t *testing.T) {
	ch, _ := New(testConfig(0))
	if ch.Slot() != 0 {
		t.Error("fresh channel should be at slot 0")
	}
	ch.Step()
	ch.Step()
	if ch.Slot() != 2 {
		t.Errorf("after two steps Slot() = %d", ch.Slot())
	}
}

func TestSlotDurationDefault(t *testing.T) {
	cfg := testConfig(0).withDefaults()
	if cfg.SlotDuration != 500*time.Microsecond {
		t.Errorf("default slot duration = %v", cfg.SlotDuration)
	}
}
