package channel

import (
	"math/rand"
	"testing"
	"time"
)

// sharedScanConfigs derives a link-like set of 2–5 channel configs from
// fuzz input: a base carrier (1–16 sites, one frequency, one slot
// duration) and per-channel bits that keep or change each of the
// frequency, the site grid and the slot duration. All channels ride one
// walking or driving route; blockage is on or off for the whole set.
func sharedScanConfigs(seed int64, nSites, nChans uint8, mix uint16, driving, blockage bool) []Config {
	rng := rand.New(rand.NewSource(seed))
	sites := make([]Point, 1+int(nSites)%16)
	for i := range sites {
		sites[i] = Point{X: rng.Float64()*1200 - 600, Y: rng.Float64()*1200 - 600}
	}
	route := Route{SpeedMPS: MobilityWalking}
	if driving {
		route.SpeedMPS = MobilityDriving
	}
	// A street-grid route: legs alternate between running along x and
	// along y, so each coordinate in turn stays fixed over a whole leg.
	p := Point{X: rng.Float64()*800 - 400, Y: rng.Float64()*800 - 400}
	route.Waypoints = append(route.Waypoints, p)
	for i := 0; i < 1+rng.Intn(3); i++ {
		if i%2 == 0 {
			p.X += rng.Float64()*200 - 100
		} else {
			p.Y += rng.Float64()*200 - 100
		}
		route.Waypoints = append(route.Waypoints, p)
	}
	slots := []time.Duration{125 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond}
	cfgs := make([]Config, 2+int(nChans)%4)
	for i := range cfgs {
		bits := mix >> (3 * i)
		grid := append([]Point(nil), sites...) // bit-equal copy, not an alias
		if bits&2 != 0 {
			grid[rng.Intn(len(grid))].X += 1 + rng.Float64()*50
		}
		cfg := Config{
			CarrierFreqMHz: 28000,
			SlotDuration:   slots[0],
			Seed:           seed + int64(i),
			Route:          route,
			Deployment:     Deployment{Sites: grid, TxPowerDBmPerRE: 18},
			SlowSigmaDB:    1,
		}
		if bits&1 != 0 {
			cfg.CarrierFreqMHz = 27500 + float64(rng.Intn(4))*400
		}
		if bits&4 != 0 {
			cfg.SlotDuration = slots[rng.Intn(len(slots))]
		}
		if blockage {
			cfg.Blockage = &DefaultBlockage
		}
		cfgs[i] = cfg
	}
	return cfgs
}

// FuzzSharedSiteScan checks that channels sharing one site-scan memo
// produce every sample bit-identical to the same configs stepped alone,
// with the lone channels' memos cleared before every slot so each of
// their slots runs the full scan. The shared set is stepped on a link
// timeline (each channel ticks on its own slot boundary), so
// equal-geometry channels of one numerology hit the memo and the rest
// miss it.
func FuzzSharedSiteScan(f *testing.F) {
	f.Add(int64(1), uint8(13), uint8(2), uint16(0), false, true)
	f.Add(int64(7), uint8(0), uint8(3), uint16(0x1249), true, false)
	f.Add(int64(-3), uint8(15), uint8(1), uint16(0x0a5c), true, true)
	f.Add(int64(2024), uint8(5), uint8(0), uint16(0x7fff), false, false)
	f.Fuzz(func(t *testing.T, seed int64, nSites, nChans uint8, mix uint16, driving, blockage bool) {
		cfgs := sharedScanConfigs(seed, nSites, nChans, mix, driving, blockage)
		shared := make([]*Channel, len(cfgs))
		alone := make([]*Channel, len(cfgs))
		for i, cfg := range cfgs {
			var err error
			if shared[i], err = New(cfg); err != nil {
				t.Fatal(err)
			}
			if alone[i], err = New(cfg); err != nil {
				t.Fatal(err)
			}
		}
		ShareSiteScans(shared...)
		for i := 1; i < len(cfgs); i++ {
			if sameGeometry(cfgs[0], cfgs[i]) != (shared[i].scan == shared[0].scan) {
				t.Fatalf("channel %d: memo shared = %v, same geometry = %v",
					i, shared[i].scan == shared[0].scan, sameGeometry(cfgs[0], cfgs[i]))
			}
		}

		const horizon = 100 * time.Millisecond
		step := cfgs[0].SlotDuration
		for _, cfg := range cfgs {
			step = min(step, cfg.SlotDuration)
		}
		next := make([]time.Duration, len(cfgs))
		for now := time.Duration(0); now < horizon; now += step {
			for i, cfg := range cfgs {
				if now < next[i] {
					continue
				}
				next[i] += cfg.SlotDuration
				alone[i].scan.valid = false
				got, want := shared[i].Step(), alone[i].Step()
				if !samplesBitIdentical(got, want) {
					t.Fatalf("t=%v channel %d: shared %+v != alone %+v", now, i, got, want)
				}
			}
		}
	})
}
