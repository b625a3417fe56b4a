package net5g

import (
	"fmt"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/phy"
	"github.com/midband5g/midband/internal/tdd"
	"github.com/midband5g/midband/internal/xcal"
)

func nrCarrier(label string, nrb int, seed int64) gnb.CarrierConfig {
	return gnb.CarrierConfig{
		Label:      label,
		Numerology: phy.Mu1,
		NRB:        nrb,
		Pattern:    tdd.MustParse("DDDDDDDSUU"),
		MCSTable:   phy.MCSTable256QAM,
		Channel: channel.Config{
			CarrierFreqMHz:           3500,
			Route:                    channel.Stationary(channel.Point{X: 300}),
			Deployment:               channel.Deployment{Sites: []channel.Point{{}}, TxPowerDBmPerRE: 18},
			OtherCellInterferenceDBm: -100,
			ShadowSigmaDB:            2,
			FastSigmaDB:              1.2,
		},
		ULSINROffsetDB: 6,
		ULMaxRank:      2,
		Seed:           seed,
	}
}

func anchorConfig(seed int64) *lte.AnchorConfig {
	return &lte.AnchorConfig{
		Label:        "lte/20MHz",
		BandwidthMHz: 20,
		Channel: channel.Config{
			CarrierFreqMHz:           2100,
			Route:                    channel.Stationary(channel.Point{X: 250}),
			Deployment:               channel.Deployment{Sites: []channel.Point{{}}, TxPowerDBmPerRE: 18},
			OtherCellInterferenceDBm: -102,
			ShadowSigmaDB:            2,
			FastSigmaDB:              1,
		},
		Seed: seed,
	}
}

func runLink(t *testing.T, l *Link, seconds float64, d Demand) (dlMbps, ulMbps, nrULMbps, lteULMbps float64) {
	t.Helper()
	steps := int(seconds / l.SlotDuration().Seconds())
	var dl, ul, nr, lteBits float64
	for i := 0; i < steps; i++ {
		r := l.Step(d)
		dl += float64(r.DLBits)
		ul += float64(r.ULBits)
		nr += float64(r.NRULBits)
		lteBits += float64(r.LTEULBits)
	}
	return dl / seconds / 1e6, ul / seconds / 1e6, nr / seconds / 1e6, lteBits / seconds / 1e6
}

func TestLinkValidation(t *testing.T) {
	if _, err := NewLink(LinkConfig{}); err == nil {
		t.Error("empty link should fail")
	}
	if _, err := NewLink(LinkConfig{
		Carriers: []gnb.CarrierConfig{nrCarrier("a", 245, 1)},
		ULPolicy: lte.ULPreferLTE,
	}); err == nil {
		t.Error("prefer-LTE without anchor should fail")
	}
	if _, err := NewLink(LinkConfig{Carriers: []gnb.CarrierConfig{{}}}); err == nil {
		t.Error("invalid carrier should fail")
	}
}

func TestCarrierAggregationAddsThroughput(t *testing.T) {
	single, err := NewLink(LinkConfig{Carriers: []gnb.CarrierConfig{nrCarrier("cc0", 245, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewLink(LinkConfig{Carriers: []gnb.CarrierConfig{
		nrCarrier("cc0", 245, 1), nrCarrier("cc1", 106, 50),
	}})
	if err != nil {
		t.Fatal(err)
	}
	dl1, _, _, _ := runLink(t, single, 20, Demand{DL: true})
	dl2, _, _, _ := runLink(t, ca, 20, Demand{DL: true})
	// Fig. 23: CA boosts DL markedly; a 106-RB SCell adds ≈ 40%.
	if dl2 < 1.2*dl1 {
		t.Errorf("CA link %.0f Mbps should clearly exceed single carrier %.0f Mbps", dl2, dl1)
	}
}

func TestULPreferLTERoutesToAnchor(t *testing.T) {
	l, err := NewLink(LinkConfig{
		Carriers:  []gnb.CarrierConfig{nrCarrier("cc0", 273, 2)},
		LTEAnchor: anchorConfig(7),
		ULPolicy:  lte.ULPreferLTE,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ul, nrUL, lteUL := runLink(t, l, 20, Demand{UL: true})
	if nrUL != 0 {
		t.Errorf("prefer-LTE should keep NR UL at 0, got %.1f Mbps", nrUL)
	}
	if lteUL <= 0 || ul != lteUL {
		t.Errorf("all UL should ride LTE: total %.1f, lte %.1f", ul, lteUL)
	}
	// §4.2: the LTE anchor outperforms T-Mobile's NR UL but stays modest.
	if lteUL < 10 || lteUL > 120 {
		t.Errorf("LTE UL = %.1f Mbps, want tens of Mbps", lteUL)
	}
}

func TestULDynamicUsesNRWhenStrong(t *testing.T) {
	l, err := NewLink(LinkConfig{
		Carriers:             []gnb.CarrierConfig{nrCarrier("cc0", 245, 3)},
		LTEAnchor:            anchorConfig(8),
		ULPolicy:             lte.ULDynamic,
		ULDynamicThresholdDB: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, nrUL, lteUL := runLink(t, l, 20, Demand{UL: true})
	if nrUL <= 0 {
		t.Error("dynamic policy on a strong channel should use NR UL")
	}
	// Weak NR UL: huge UL deficit pushes traffic to LTE.
	weak := nrCarrier("cc0", 245, 4)
	weak.ULSINROffsetDB = 40
	l2, err := NewLink(LinkConfig{
		Carriers:             []gnb.CarrierConfig{weak},
		LTEAnchor:            anchorConfig(9),
		ULPolicy:             lte.ULDynamic,
		ULDynamicThresholdDB: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, nrUL2, lteUL2 := runLink(t, l2, 20, Demand{UL: true})
	if lteUL2 <= lteUL {
		t.Errorf("weak NR UL should shift traffic to LTE: strong-case %.1f, weak-case %.1f", lteUL, lteUL2)
	}
	if nrUL2 > nrUL/4 {
		t.Errorf("weak NR UL should carry little traffic: %.1f vs %.1f", nrUL2, nrUL)
	}
}

func TestMixedNumerologyTicks(t *testing.T) {
	// A 15 kHz FDD SCell (e.g. T-Mobile's n25) ticks every other PCell slot.
	fddCC := nrCarrier("n25", 106, 5)
	fddCC.FDD = true
	fddCC.Pattern = tdd.Pattern{}
	fddCC.Numerology = phy.Mu0
	l, err := NewLink(LinkConfig{Carriers: []gnb.CarrierConfig{nrCarrier("n41", 273, 6), fddCC}})
	if err != nil {
		t.Fatal(err)
	}
	pcellTicks, scellTicks := 0, 0
	for i := 0; i < 4000; i++ {
		r := l.Step(Demand{DL: true})
		if r.NRTicked[0] {
			pcellTicks++
		}
		if r.NRTicked[1] {
			scellTicks++
		}
	}
	if pcellTicks != 4000 {
		t.Errorf("PCell ticked %d/4000", pcellTicks)
	}
	if scellTicks < 1990 || scellTicks > 2010 {
		t.Errorf("15 kHz SCell ticked %d, want ≈ 2000", scellTicks)
	}
}

func TestKPIRecords(t *testing.T) {
	l, err := NewLink(LinkConfig{
		Carriers:  []gnb.CarrierConfig{nrCarrier("cc0", 245, 10)},
		LTEAnchor: anchorConfig(11),
		ULPolicy:  lte.ULPreferLTE,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []xcal.SlotKPI
	for i := 0; i < 8000; i++ {
		recs = KPIRecords(l.Step(Saturate), recs)
	}
	var dl, ul, lteRecs int
	for _, r := range recs {
		if r.RAT == xcal.LTE {
			lteRecs++
		}
		if r.DeliveredBits > 0 {
			if r.Dir == xcal.DL {
				dl++
			} else {
				ul++
			}
		}
		if r.RBs > 273 {
			t.Fatalf("record with %d RBs exceeds any configured carrier", r.RBs)
		}
	}
	if dl == 0 || ul == 0 || lteRecs == 0 {
		t.Errorf("records missing categories: dl=%d ul=%d lte=%d", dl, ul, lteRecs)
	}
}

func latencyModel(t *testing.T, pattern string, sr bool, seed int64) *LatencyModel {
	t.Helper()
	cfg := LatencyConfig{
		SlotDuration: 500 * time.Microsecond,
		UEProcess:    100 * time.Microsecond,
		GNBProcess:   100 * time.Microsecond,
		SRBasedUL:    sr,
		DLBLER:       0.05,
		ULBLER:       0.05,
		Seed:         seed,
	}
	if pattern != "" {
		cfg.Pattern = tdd.MustParse(pattern)
	}
	m, err := NewLatencyModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func meanMs(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return float64(s) / float64(len(ds)) / 1e6
}

func TestLatencyFrameStructureOrdering(t *testing.T) {
	// The §4.3 mechanism: DDDSU with preconfigured grants ≈ 2 ms;
	// DDDDDDDSUU with an SR cycle ≈ 7 ms. BLER adds a little.
	fast, fastRetx := latencyModel(t, "DDDSU", false, 1).Samples(20000)
	slow, slowRetx := latencyModel(t, "DDDDDDDSUU", true, 2).Samples(20000)
	mFast, mSlow := meanMs(fast), meanMs(slow)
	if mFast < 1.2 || mFast > 3.2 {
		t.Errorf("DDDSU preconfigured latency = %.2f ms, want ≈ 2", mFast)
	}
	if mSlow < 5.5 || mSlow > 8.5 {
		t.Errorf("DDDDDDDSUU SR latency = %.2f ms, want ≈ 7", mSlow)
	}
	if mSlow <= mFast {
		t.Error("bunched-UL SR pattern must be slower")
	}
	if meanMs(fastRetx) <= mFast {
		t.Errorf("retransmitted bucket (%.2f) should exceed clean bucket (%.2f)", meanMs(fastRetx), mFast)
	}
	if meanMs(slowRetx) <= mSlow {
		t.Errorf("retransmitted bucket (%.2f) should exceed clean bucket (%.2f)", meanMs(slowRetx), mSlow)
	}
}

func TestLatencyFDDFloor(t *testing.T) {
	fdd, _ := latencyModel(t, "", false, 3).Samples(5000)
	tddSamples, _ := latencyModel(t, "DDDSU", false, 4).Samples(5000)
	if meanMs(fdd) >= meanMs(tddSamples) {
		t.Errorf("FDD (%.2f ms) should beat TDD (%.2f ms): no UL alignment wait", meanMs(fdd), meanMs(tddSamples))
	}
}

func TestLatencyValidation(t *testing.T) {
	if _, err := NewLatencyModel(LatencyConfig{}); err == nil {
		t.Error("missing slot duration should fail")
	}
	if _, err := NewLatencyModel(LatencyConfig{SlotDuration: time.Millisecond, DLBLER: 1.5}); err == nil {
		t.Error("BLER 1.5 should fail")
	}
}

func TestLinkClock(t *testing.T) {
	l, err := NewLink(LinkConfig{Carriers: []gnb.CarrierConfig{nrCarrier("cc0", 245, 12)}})
	if err != nil {
		t.Fatal(err)
	}
	if l.Now() != 0 {
		t.Error("fresh link at t=0")
	}
	for i := 0; i < 10; i++ {
		l.Step(Demand{})
	}
	if l.Now() != 10*l.SlotDuration() {
		t.Errorf("after 10 steps Now = %v", l.Now())
	}
	if l.PCell() == nil || len(l.Carriers()) != 1 || l.Anchor() != nil {
		t.Error("accessor results wrong")
	}
}

// mmWaveCarriers is a moving 4-carrier same-band link: co-sited n261-like
// component carriers on one route, so the carriers share one site scan.
func mmWaveCarriers(speed float64) []gnb.CarrierConfig {
	ccs := make([]gnb.CarrierConfig, 4)
	for i := range ccs {
		cc := nrCarrier(fmt.Sprintf("n261/cc%d", i), 66, int64(60+i))
		cc.Numerology = phy.Mu3
		cc.Pattern = tdd.MustParse("DDDSU")
		cc.Channel.CarrierFreqMHz = 28000
		cc.Channel.Route = channel.Route{Waypoints: []channel.Point{{X: -200}, {X: 200, Y: 40}}, SpeedMPS: speed}
		cc.Channel.Deployment = channel.Deployment{
			Sites:           []channel.Point{{X: -150, Y: 60}, {X: 0, Y: -60}, {X: 150, Y: 60}},
			TxPowerDBmPerRE: 18,
		}
		cc.Channel.Blockage = &channel.DefaultBlockage
		ccs[i] = cc
	}
	return ccs
}

// TestLinkStepAllocs pins the aggregated slot loop at zero allocations
// per Step in steady state: NR carriers plus the LTE anchor, and a moving
// 4-carrier same-band link whose carriers share one site-scan memo. The
// returned slices and LTE pointer are owned by the Link, so nothing
// escapes.
func TestLinkStepAllocs(t *testing.T) {
	for name, cfg := range map[string]LinkConfig{
		"stationary-anchor": {
			Carriers: []gnb.CarrierConfig{
				nrCarrier("cc0", 245, 1), nrCarrier("cc1", 106, 50),
			},
			LTEAnchor: anchorConfig(9),
			ULPolicy:  lte.ULDynamic,
		},
		"walking-4cc": {Carriers: mmWaveCarriers(channel.MobilityWalking)},
		"driving-4cc": {Carriers: mmWaveCarriers(channel.MobilityDriving)},
	} {
		t.Run(name, func(t *testing.T) {
			l, err := NewLink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				l.Step(Demand{DL: true, UL: true})
			}
			allocs := testing.AllocsPerRun(5000, func() {
				l.Step(Demand{DL: true, UL: true})
			})
			if allocs > 0 {
				t.Errorf("Link.Step allocates %.3f objects/slot in steady state, want 0", allocs)
			}
		})
	}
}
