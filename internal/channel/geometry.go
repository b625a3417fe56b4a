// Package channel models the radio environment the measurement campaign
// sampled in the field: path loss against a deployment of gNB sites,
// correlated shadowing, Doppler-scaled fast fading, and (for the §7 mmWave
// comparison) a blockage/outage process. It produces per-slot SINR, RSRP and
// RSRQ samples — the inputs that drive CQI reporting, MCS selection, rank
// adaptation and therefore all the KPI distributions in §4 and §5.
package channel

import (
	"fmt"
	"math"

	"github.com/midband5g/midband/internal/phy"
)

// Point is a 2D position in meters.
type Point struct{ X, Y float64 }

// Distance returns the Euclidean distance to q in meters.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Route is a polyline the UE traverses at constant speed; a single waypoint
// means the UE is stationary.
type Route struct {
	Waypoints []Point
	// SpeedMPS is the UE speed in m/s (0 for stationary).
	SpeedMPS float64
}

// Stationary returns a route pinned at p.
func Stationary(p Point) Route { return Route{Waypoints: []Point{p}} }

// Validate checks the route is usable.
func (r Route) Validate() error {
	if len(r.Waypoints) == 0 {
		return fmt.Errorf("channel: route needs at least one waypoint")
	}
	if r.SpeedMPS < 0 {
		return fmt.Errorf("channel: negative speed %g", r.SpeedMPS)
	}
	if r.SpeedMPS > 0 && len(r.Waypoints) < 2 {
		return fmt.Errorf("channel: moving route needs at least two waypoints")
	}
	return nil
}

// Mobility profiles used by the paper's experiments.
var (
	// MobilityStationary keeps the UE on a flat surface (§2 step ❹).
	MobilityStationary = 0.0
	// MobilityWalking is a pedestrian pace.
	MobilityWalking = 1.4
	// MobilityDriving is urban driving.
	MobilityDriving = 11.0
)

// Deployment is a set of gNB sites sharing one carrier.
type Deployment struct {
	// Sites are the gNB positions. Coverage density — the count and
	// spacing of sites — is the §4.1/Appendix 10.3 explanation for the
	// Vodafone-vs-Orange Spain RSRQ difference.
	Sites []Point
	// TxPowerDBmPerRE is the per-resource-element transmit power.
	TxPowerDBmPerRE float64
}

// Validate checks the deployment is usable.
func (d Deployment) Validate() error {
	if len(d.Sites) == 0 {
		return fmt.Errorf("channel: deployment needs at least one site")
	}
	return nil
}

// freqTermDB is the frequency term of strongestSite's path loss,
// 20·log10(fc_GHz), for a carrier at fcMHz.
func freqTermDB(fcMHz float64) float64 { return 20 * math.Log10(fcMHz/1000) }

// strongestSite returns the index of the site with the least path loss from
// p and the corresponding received per-RE power (dBm), plus the total
// interference power (mW) from all other sites. powers is caller-provided
// scratch (len ≥ len(d.Sites)) so the per-slot hot path allocates nothing.
// Path loss is a 3GPP UMa-style line-of-sight model,
// 28.0 + 22·log10(d) + 20·log10(fc_GHz) with a 10 m minimum distance; the
// caller passes its frequency term, freqTermDB(fc), computed once per
// channel.
//
//detlint:zeroalloc
func (d Deployment) strongestSite(p Point, fcTermDB float64, powers []float64) (idx int, rsrpDBm float64, interfMW float64) {
	best := math.Inf(-1)
	idx = -1
	powers = powers[:len(d.Sites)]
	for i, s := range d.Sites {
		dist := p.Distance(s)
		if dist < 10 {
			dist = 10
		}
		rx := d.TxPowerDBmPerRE - (28.0 + 22*math.Log10(dist) + fcTermDB)
		powers[i] = rx
		if rx > best {
			best = rx
			idx = i
		}
	}
	for i, rx := range powers {
		if i != idx {
			interfMW += phy.DBToLinear(rx)
		}
	}
	return idx, best, interfMW
}
