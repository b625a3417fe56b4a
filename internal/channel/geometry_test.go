package channel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDistance(t *testing.T) {
	if d := (Point{0, 0}).Distance(Point{3, 4}); d != 5 {
		t.Errorf("distance = %g, want 5", d)
	}
	if d := (Point{1, 1}).Distance(Point{1, 1}); d != 0 {
		t.Errorf("self distance = %g", d)
	}
}

// routeLength is the total polyline length in meters; routePosition is
// the UE position after traveling for tSec seconds, walking the route back
// and forth. Together they are the straightforward route walker the
// production Channel.position (segment lengths precomputed) must match.
func routeLength(r Route) float64 {
	total := 0.0
	for i := 1; i < len(r.Waypoints); i++ {
		total += r.Waypoints[i-1].Distance(r.Waypoints[i])
	}
	return total
}

func routePosition(r Route, tSec float64) Point {
	if r.SpeedMPS == 0 || len(r.Waypoints) == 1 {
		return r.Waypoints[0]
	}
	total := routeLength(r)
	if total == 0 {
		return r.Waypoints[0]
	}
	d := math.Mod(r.SpeedMPS*tSec, 2*total)
	if d > total {
		d = 2*total - d // walking back
	}
	for i := 1; i < len(r.Waypoints); i++ {
		seg := r.Waypoints[i-1].Distance(r.Waypoints[i])
		if d <= seg && seg > 0 {
			f := d / seg
			a, b := r.Waypoints[i-1], r.Waypoints[i]
			return Point{a.X + f*(b.X-a.X), a.Y + f*(b.Y-a.Y)}
		}
		d -= seg
	}
	return r.Waypoints[len(r.Waypoints)-1]
}

// pathLossDB is strongestSite's path-loss model written out per site:
// 28.0 + 22·log10(d) + 20·log10(fc_GHz), with a 10 m minimum distance.
func pathLossDB(dMeters, fcMHz float64) float64 {
	if dMeters < 10 {
		dMeters = 10
	}
	return 28.0 + 22*math.Log10(dMeters) + 20*math.Log10(fcMHz/1000)
}

// referenceStrongestSite is the site scan as first written: pathLossDB and
// a dB→mW pow per site, nothing hoisted. The production strongestSite
// must match it bit for bit.
func referenceStrongestSite(d Deployment, p Point, fcMHz float64) (idx int, rsrpDBm float64, interfMW float64) {
	best := math.Inf(-1)
	idx = -1
	powers := make([]float64, len(d.Sites))
	for i, s := range d.Sites {
		rx := d.TxPowerDBmPerRE - pathLossDB(p.Distance(s), fcMHz)
		powers[i] = rx
		if rx > best {
			best = rx
			idx = i
		}
	}
	for i, rx := range powers {
		if i != idx {
			interfMW += math.Pow(10, rx/10)
		}
	}
	return idx, best, interfMW
}

// scan runs the production site scan with fresh scratch.
func scan(d Deployment, p Point, fcMHz float64) (int, float64, float64) {
	return d.strongestSite(p, freqTermDB(fcMHz), make([]float64, len(d.Sites)))
}

// walker builds a channel on route r so tests can drive the production
// position walker.
func walker(t testing.TB, r Route) *Channel {
	t.Helper()
	ch, err := New(Config{CarrierFreqMHz: 3500, Route: r, Deployment: Deployment{Sites: []Point{{}}}})
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestStrongestSiteSelection(t *testing.T) {
	d := Deployment{
		Sites:           []Point{{0, 0}, {500, 0}, {1000, 0}},
		TxPowerDBmPerRE: 18,
	}
	// Near each site, that site serves.
	for i, near := range []Point{{10, 30}, {510, 30}, {990, 30}} {
		idx, rsrp, interf := scan(d, near, 3500)
		if idx != i {
			t.Errorf("at %+v serving = %d, want %d", near, idx, i)
		}
		if rsrp > 18 || rsrp < -120 {
			t.Errorf("rsrp %g implausible", rsrp)
		}
		if interf <= 0 {
			t.Error("other sites should contribute interference")
		}
	}
	// Single-site deployment has zero modeled interference.
	solo := Deployment{Sites: []Point{{0, 0}}, TxPowerDBmPerRE: 18}
	if _, _, interf := scan(solo, Point{100, 0}, 3500); interf != 0 {
		t.Errorf("solo site interference = %g, want 0", interf)
	}
}

func TestStrongestSiteRSRPMonotoneInDistance(t *testing.T) {
	d := Deployment{Sites: []Point{{0, 0}}, TxPowerDBmPerRE: 18}
	f := func(aRaw, bRaw uint16) bool {
		a := 10 + float64(aRaw%2000)
		b := 10 + float64(bRaw%2000)
		_, ra, _ := scan(d, Point{a, 0}, 3500)
		_, rb, _ := scan(d, Point{b, 0}, 3500)
		if a < b {
			return ra >= rb
		}
		return rb >= ra
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteEdgeCases(t *testing.T) {
	// Zero-length moving route pins at the waypoint.
	r := Route{Waypoints: []Point{{5, 5}, {5, 5}}, SpeedMPS: 3}
	if p := walker(t, r).position(100); p != (Point{5, 5}) {
		t.Errorf("degenerate route position = %+v", p)
	}
	// Multi-segment routes traverse in order.
	r = Route{Waypoints: []Point{{0, 0}, {10, 0}, {10, 10}}, SpeedMPS: 1}
	w := walker(t, r)
	if p := w.position(15); math.Abs(p.X-10) > 1e-9 || math.Abs(p.Y-5) > 1e-9 {
		t.Errorf("position at 15s = %+v, want (10,5)", p)
	}
	if w.segTotal != 20 {
		t.Errorf("length = %g, want 20", w.segTotal)
	}
	// Empty route is invalid.
	if err := (Route{}).Validate(); err == nil {
		t.Error("empty route should be invalid")
	}
}

func TestRoutePingPongProperty(t *testing.T) {
	// The UE never leaves the polyline's bounding segment.
	w := walker(t, Route{Waypoints: []Point{{0, 0}, {100, 0}}, SpeedMPS: 7})
	f := func(tRaw uint16) bool {
		p := w.position(float64(tRaw) * 0.37)
		return p.X >= -1e-9 && p.X <= 100+1e-9 && p.Y == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStrongestSiteMatchesReference locks the production scan, with its
// hoisted frequency term, to the reference scan over random geometry.
func TestStrongestSiteMatchesReference(t *testing.T) {
	d := Deployment{
		Sites:           []Point{{0, 0}, {480, 90}, {-300, 620}, {5, 3}},
		TxPowerDBmPerRE: 18,
	}
	f := func(x, y int16, fcRaw uint16) bool {
		p := Point{float64(x) / 7, float64(y) / 3}
		fc := 600 + float64(fcRaw)
		gi, gr, gf := scan(d, p, fc)
		wi, wr, wf := referenceStrongestSite(d, p, fc)
		return gi == wi && math.Float64bits(gr) == math.Float64bits(wr) &&
			math.Float64bits(gf) == math.Float64bits(wf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDeploymentValidate(t *testing.T) {
	if err := (Deployment{}).Validate(); err == nil {
		t.Error("empty deployment should be invalid")
	}
	if err := (Deployment{Sites: []Point{{}}}).Validate(); err != nil {
		t.Errorf("single-site deployment should be valid: %v", err)
	}
}
