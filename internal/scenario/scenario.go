// Package scenario defines the declarative scenario specification that
// makes the simulator's workload surface data rather than code: a
// schema-versioned JSON document describing traffic mix, route, band
// plan, UE population, fault spec, session count/duration and seed
// domain, decoded strictly (unknown fields are errors), defaulted,
// cross-field validated and digested canonically so every run manifest
// can name the exact scenario that produced it.
//
// A compiled-in pack library (see packs.go) ships the workloads the
// paper's findings span beyond the reproduced figure set — web
// browsing, VoIP, cloud gaming, the uplink-heavy 4G-vs-5G comparison,
// and an MEC edge-caching video arm running the ABR × {EDGE_ON,
// EDGE_OFF} grid with paired per-cell statistics. Each pack is a
// first-class campaign: runnable under -parallel, -faults and the
// multi-UE contention model, byte-identical for any worker count, and
// pinned by the conformance suite in conformance_test.go.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/phy"
)

// SchemaVersion is the scenario spec layout version this package
// decodes. Bump it only with a migration path: Decode rejects every
// other value.
const SchemaVersion = 1

// Apps the traffic section can name. Each maps to one driver in run.go.
const (
	AppBulk   = "bulk"   // saturating bulk transfer — the legacy Table 1 campaign
	AppWeb    = "web"    // page-fetch loop with think time (page-load latency KPIs)
	AppVoIP   = "voip"   // latency probes scored with the E-model MOS
	AppGaming = "gaming" // cloud gaming: latency-budget violations + headroom
	AppUplink = "uplink" // uplink-saturating transfer, NR vs LTE leg split
	AppVideo  = "video"  // DASH ABR × edge-caching grid (MEC arm)
)

// Spec is one declarative scenario. The zero value is invalid; build
// specs with Decode (strict JSON) or fill the fields and call Normalize
// then Validate. All fields marshal in canonical order — Canonical and
// Digest depend on it.
type Spec struct {
	// Schema must equal SchemaVersion.
	Schema int `json:"schema"`
	// Name identifies the scenario (pack name, manifest entry).
	Name string `json:"name"`
	// Description is free prose for listings.
	Description string `json:"description,omitempty"`
	// Paper cites the paper sections (or related work) the scenario
	// exercises, e.g. "§4.3, §6" or "Rochman et al. (PAPERS.md)".
	Paper string `json:"paper,omitempty"`

	// Traffic selects the workload and its knobs.
	Traffic Traffic `json:"traffic"`
	// Route is the UE trajectory.
	Route Route `json:"route"`
	// BandPlan selects the deployments under test.
	BandPlan BandPlan `json:"band_plan"`
	// Population configures multi-UE cell contention.
	Population Population `json:"population"`
	// Faults is a fault.ParseSpec string (empty: no injection). It is
	// validated at decode time so a bad embedded spec fails the
	// scenario, not the run.
	Faults string `json:"faults,omitempty"`
	// Sessions sets repetition and duration.
	Sessions Sessions `json:"sessions"`
	// SeedDomain isolates the scenario's random streams from every
	// other scenario's: all job seeds derive from
	// fleet.SplitSeed(base, SeedDomain+"/...", index). Defaults to Name.
	SeedDomain string `json:"seed_domain,omitempty"`
	// Video configures the ABR × edge grid; required for AppVideo,
	// forbidden otherwise.
	Video *VideoGrid `json:"video,omitempty"`
}

// Traffic is the workload section. Knobs are per-app; Validate rejects
// knobs set for the wrong app so specs cannot silently carry dead
// configuration.
type Traffic struct {
	// App is one of the App* constants.
	App string `json:"app"`

	// Web: a page is PageKB split across sequential object fetches,
	// followed by ThinkTimeMS of idle time (defaults 1500 KB, 2000 ms).
	PageKB      float64 `json:"page_kb,omitempty"`
	ThinkTimeMS float64 `json:"think_time_ms,omitempty"`

	// VoIP/gaming: ProbeCount user-plane latency probes (default 400);
	// gaming scores them against LatencyBudgetMS (default 30).
	ProbeCount      int     `json:"probe_count,omitempty"`
	LatencyBudgetMS float64 `json:"latency_budget_ms,omitempty"`
}

// Route kinds.
const (
	RouteStationary = "stationary"
	RouteWalking    = "walking"
	RouteDriving    = "driving"
)

// Route is the trajectory section.
type Route struct {
	// Kind is stationary, walking or driving.
	Kind string `json:"kind"`
	// LengthM overrides the default route length for mobile kinds.
	LengthM float64 `json:"length_m,omitempty"`
	// UEDistanceM overrides the operator's measurement-spot distance.
	UEDistanceM float64 `json:"ue_distance_m,omitempty"`
}

// BandPlan selects deployments.
type BandPlan struct {
	// Operators lists registry acronyms (empty: the full mid-band
	// registry). Order is preserved — it is the report order.
	Operators []string `json:"operators,omitempty"`
	// CompareLTE, for AppUplink, additionally reports the NSA
	// NR-vs-LTE uplink leg split — the 4G-vs-5G low/mid-band
	// comparison.
	CompareLTE bool `json:"compare_lte,omitempty"`
}

// Population configures the shared-cell contention arm.
type Population struct {
	// UEsPerCell > 1 appends a multi-UE contention arm per operator
	// (0 or 1: single-UE only).
	UEsPerCell int `json:"ues_per_cell,omitempty"`
	// CellPolicy is the contention scheduler: eq, pf, mt or rr
	// (default pf when UEsPerCell > 1).
	CellPolicy string `json:"cell_policy,omitempty"`
}

// Sessions sets repetition and duration.
type Sessions struct {
	// Count repeats each arm at fresh channel realizations (default 1).
	Count int `json:"count,omitempty"`
	// DurationSec is the simulated workload length per session. Video
	// sessions take their length from video.media_sec instead, so
	// AppVideo specs must leave it zero.
	DurationSec float64 `json:"duration_sec,omitempty"`
}

// VideoGrid is the MEC video arm: every (operator, ABR, edge
// condition) triple of the grid runs Sessions.Count sessions, and the
// EDGE_ON/EDGE_OFF arms of a cell share seeds so their QoE difference
// is a paired statistic.
type VideoGrid struct {
	// ABRs lists algorithms: bola, throughput, dynamic.
	ABRs []string `json:"abrs"`
	// Ladder is "400" (the §6 mid-band ladder, default) or "mmwave".
	Ladder string `json:"ladder,omitempty"`
	// ChunkSec is the segment duration (default 4).
	ChunkSec float64 `json:"chunk_sec,omitempty"`
	// MediaSec is the media length per session (default 60).
	MediaSec float64 `json:"media_sec,omitempty"`
	// Edge parameterizes the MEC cache both arms share: EDGE_ON uses
	// it, EDGE_OFF fetches every chunk at the origin RTT.
	Edge EdgeSpec `json:"edge"`
}

// EdgeSpec parameterizes MEC edge caching (see video.EdgeConfig).
type EdgeSpec struct {
	// HitRatio is the fraction of chunks served from the edge cache
	// when the cache is on.
	HitRatio float64 `json:"hit_ratio"`
	// OriginRTTMS is the per-chunk request RTT to the origin CDN;
	// EdgeRTTMS the RTT for an edge cache hit.
	OriginRTTMS float64 `json:"origin_rtt_ms"`
	EdgeRTTMS   float64 `json:"edge_rtt_ms"`
}

// Decode strictly parses a spec from JSON: unknown fields, duplicate
// schema mismatches and malformed sections are errors, then the spec is
// normalized (defaults applied) and cross-field validated. The returned
// spec always passes Validate.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	// Trailing garbage after the top-level object is an error too:
	// concatenated or truncated-and-patched files should not half-parse.
	if dec.More() {
		return nil, fmt.Errorf("scenario: trailing data after spec object")
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Normalize applies defaults in place. It is idempotent, and Canonical
// output round-trips through Decode to a DeepEqual spec because every
// default is materialized here rather than at use sites.
func (s *Spec) Normalize() {
	if s.SeedDomain == "" {
		s.SeedDomain = s.Name
	}
	if s.Route.Kind == "" {
		s.Route.Kind = RouteStationary
	}
	if s.Sessions.Count == 0 {
		s.Sessions.Count = 1
	}
	switch s.Traffic.App {
	case AppWeb:
		if s.Traffic.PageKB == 0 {
			s.Traffic.PageKB = 1500
		}
		if s.Traffic.ThinkTimeMS == 0 {
			s.Traffic.ThinkTimeMS = 2000
		}
	case AppVoIP:
		if s.Traffic.ProbeCount == 0 {
			s.Traffic.ProbeCount = 400
		}
	case AppGaming:
		if s.Traffic.ProbeCount == 0 {
			s.Traffic.ProbeCount = 400
		}
		if s.Traffic.LatencyBudgetMS == 0 {
			s.Traffic.LatencyBudgetMS = 30
		}
	}
	if s.Population.UEsPerCell > 1 && s.Population.CellPolicy == "" {
		s.Population.CellPolicy = "pf"
	}
	if v := s.Video; v != nil {
		if v.Ladder == "" {
			v.Ladder = "400"
		}
		if v.ChunkSec == 0 {
			v.ChunkSec = 4
		}
		if v.MediaSec == 0 {
			v.MediaSec = 60
		}
	}
}

// Resource ceilings Validate checks before anything is allocated, far
// above every shipped pack (at most 240 session-seconds) and benchmark
// (256 UEs per cell). maxSessionSec (about 11.6 simulated days) bounds
// duration × operators × sessions.
const maxUEsPerCell, maxSessions, maxSessionSec = 4096, 10000, 1e6

// knownApps in listing order.
var knownApps = []string{AppBulk, AppWeb, AppVoIP, AppGaming, AppUplink, AppVideo}

// Validate cross-checks the normalized spec and returns the first
// problem with enough context to fix the JSON. It never mutates the
// spec; call Normalize first (Decode does both).
func (s *Spec) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("scenario: schema %d unsupported (want %d)", s.Schema, SchemaVersion)
	}
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	app := s.Traffic.App
	found := false
	for _, k := range knownApps {
		if app == k {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("scenario: %s: unknown traffic app %q (want one of %s)",
			s.Name, app, strings.Join(knownApps, ", "))
	}
	// Per-app knobs must not leak across apps: a web spec carrying a
	// latency budget is a typo, not configuration.
	if app != AppWeb && (s.Traffic.PageKB != 0 || s.Traffic.ThinkTimeMS != 0) {
		return fmt.Errorf("scenario: %s: page_kb/think_time_ms only apply to app %q", s.Name, AppWeb)
	}
	if app != AppVoIP && app != AppGaming && s.Traffic.ProbeCount != 0 {
		return fmt.Errorf("scenario: %s: probe_count only applies to apps %q and %q", s.Name, AppVoIP, AppGaming)
	}
	if app != AppGaming && s.Traffic.LatencyBudgetMS != 0 {
		return fmt.Errorf("scenario: %s: latency_budget_ms only applies to app %q", s.Name, AppGaming)
	}
	if app == AppWeb && (s.Traffic.PageKB < 0 || s.Traffic.ThinkTimeMS < 0) {
		return fmt.Errorf("scenario: %s: negative web traffic knobs", s.Name)
	}
	if (app == AppVoIP || app == AppGaming) && s.Traffic.ProbeCount < 0 {
		return fmt.Errorf("scenario: %s: negative probe_count %d", s.Name, s.Traffic.ProbeCount)
	}
	if app == AppGaming && s.Traffic.LatencyBudgetMS < 0 {
		return fmt.Errorf("scenario: %s: negative latency_budget_ms %g", s.Name, s.Traffic.LatencyBudgetMS)
	}
	switch s.Route.Kind {
	case RouteStationary:
		if s.Route.LengthM != 0 {
			return fmt.Errorf("scenario: %s: length_m set on a stationary route", s.Name)
		}
	case RouteWalking, RouteDriving:
	default:
		return fmt.Errorf("scenario: %s: unknown route kind %q (want %s, %s or %s)",
			s.Name, s.Route.Kind, RouteStationary, RouteWalking, RouteDriving)
	}
	if s.Route.LengthM < 0 || s.Route.UEDistanceM < 0 {
		return fmt.Errorf("scenario: %s: negative route geometry", s.Name)
	}
	seen := map[string]bool{}
	for _, acr := range s.BandPlan.Operators {
		if _, err := operators.ByAcronym(acr); err != nil {
			return fmt.Errorf("scenario: %s: band plan: %w", s.Name, err)
		}
		if seen[acr] {
			return fmt.Errorf("scenario: %s: band plan lists %s twice", s.Name, acr)
		}
		seen[acr] = true
	}
	if s.BandPlan.CompareLTE && app != AppUplink {
		return fmt.Errorf("scenario: %s: compare_lte only applies to app %q", s.Name, AppUplink)
	}
	if s.Population.UEsPerCell < 0 {
		return fmt.Errorf("scenario: %s: negative ues_per_cell %d", s.Name, s.Population.UEsPerCell)
	}
	if s.Population.UEsPerCell > maxUEsPerCell {
		return fmt.Errorf("scenario: %s: ues_per_cell %d exceeds the limit of %d", s.Name, s.Population.UEsPerCell, maxUEsPerCell)
	}
	if s.Population.UEsPerCell > 1 {
		if _, err := gnb.ParsePolicy(s.Population.CellPolicy); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
	} else if s.Population.CellPolicy != "" {
		return fmt.Errorf("scenario: %s: cell_policy %q set without ues_per_cell > 1", s.Name, s.Population.CellPolicy)
	}
	if s.Faults != "" {
		if _, err := fault.ParseSpec(s.Faults); err != nil {
			return fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
	}
	if s.Sessions.Count < 1 {
		return fmt.Errorf("scenario: %s: sessions.count %d < 1", s.Name, s.Sessions.Count)
	}
	if s.Sessions.Count > maxSessions {
		return fmt.Errorf("scenario: %s: sessions.count %d exceeds the limit of %d", s.Name, s.Sessions.Count, maxSessions)
	}
	if app == AppVideo {
		if s.Sessions.DurationSec != 0 {
			return fmt.Errorf("scenario: %s: video sessions take their length from video.media_sec; drop sessions.duration_sec", s.Name)
		}
	} else if s.Sessions.DurationSec <= 0 {
		return fmt.Errorf("scenario: %s: sessions.duration_sec %g must be positive", s.Name, s.Sessions.DurationSec)
	}
	if app == AppVideo {
		if s.Video == nil {
			return fmt.Errorf("scenario: %s: app %q requires a video section", s.Name, AppVideo)
		}
		if err := s.Video.validate(s.Name); err != nil {
			return err
		}
	} else if s.Video != nil {
		return fmt.Errorf("scenario: %s: video section set but traffic app is %q", s.Name, app)
	}
	sec, ops := s.Sessions.DurationSec, len(s.BandPlan.Operators) // raw: Duration() overflows on hostile values
	if s.Video != nil {
		sec = s.Video.MediaSec
	}
	if ops == 0 {
		ops = len(operators.MidBand())
	}
	if total := sec * float64(ops*s.Sessions.Count); !(total <= maxSessionSec) {
		return fmt.Errorf("scenario: %s: %g s per session × %d operators × %d sessions = %g simulated seconds exceeds the limit of %g",
			s.Name, sec, ops, s.Sessions.Count, total, float64(maxSessionSec))
	}
	if s.Population.UEsPerCell > 1 {
		plan, err := s.Operators()
		if err != nil {
			return err
		}
		for _, op := range plan { // the multi-UE arm steps each primary carrier for one session
			if mu, err := phy.FromSCS(op.PCell().SCSkHz); err == nil && s.Duration() < mu.SlotDuration() {
				return fmt.Errorf("scenario: %s: ues_per_cell needs sessions of at least one slot, but %v is shorter than %s's %v slot",
					s.Name, s.Duration(), op.Acronym, mu.SlotDuration())
			}
		}
	}
	return nil
}

// knownABRs in grid order.
var knownABRs = []string{"bola", "throughput", "dynamic"}

func (v *VideoGrid) validate(name string) error {
	if len(v.ABRs) == 0 {
		return fmt.Errorf("scenario: %s: video grid needs at least one ABR", name)
	}
	seen := map[string]bool{}
	for _, a := range v.ABRs {
		ok := false
		for _, k := range knownABRs {
			if a == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("scenario: %s: unknown ABR %q (want %s)", name, a, strings.Join(knownABRs, ", "))
		}
		if seen[a] {
			return fmt.Errorf("scenario: %s: video grid lists ABR %q twice", name, a)
		}
		seen[a] = true
	}
	if v.Ladder != "400" && v.Ladder != "mmwave" {
		return fmt.Errorf("scenario: %s: unknown ladder %q (want 400 or mmwave)", name, v.Ladder)
	}
	if v.ChunkSec <= 0 {
		return fmt.Errorf("scenario: %s: chunk_sec %g must be positive", name, v.ChunkSec)
	}
	if v.MediaSec < v.ChunkSec {
		return fmt.Errorf("scenario: %s: media_sec %g shorter than one chunk (%g s)", name, v.MediaSec, v.ChunkSec)
	}
	if v.Edge.HitRatio < 0 || v.Edge.HitRatio > 1 {
		return fmt.Errorf("scenario: %s: edge hit_ratio %g outside [0,1]", name, v.Edge.HitRatio)
	}
	if v.Edge.OriginRTTMS < 0 || v.Edge.EdgeRTTMS < 0 {
		return fmt.Errorf("scenario: %s: negative edge RTTs", name)
	}
	if v.Edge.EdgeRTTMS > v.Edge.OriginRTTMS {
		return fmt.Errorf("scenario: %s: edge_rtt_ms %g exceeds origin_rtt_ms %g — the cache must be closer than the origin",
			name, v.Edge.EdgeRTTMS, v.Edge.OriginRTTMS)
	}
	return nil
}

// Canonical returns the spec's canonical JSON: the normalized spec
// marshaled with fixed field order and no insignificant whitespace.
// Decode(Canonical()) is the identity on normalized specs.
func (s *Spec) Canonical() ([]byte, error) {
	b, err := json.Marshal(s)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalizing %s: %w", s.Name, err)
	}
	return b, nil
}

// Digest returns hex(SHA-256) of the canonical JSON — the identity a
// run manifest records so artifacts can be traced to the exact scenario
// that produced them.
func (s *Spec) Digest() (string, error) {
	digest, _, err := obs.DigestJSON(s)
	if err != nil {
		return "", fmt.Errorf("scenario: digesting %s: %w", s.Name, err)
	}
	return digest, nil
}

// StampManifest records the scenario's identity on a run manifest.
func (s *Spec) StampManifest(m *obs.RunManifest) error {
	d, err := s.Digest()
	if err != nil {
		return err
	}
	m.Scenario = s.Name
	m.ScenarioDigest = d
	return nil
}

// Operators resolves the band plan against the registry (full mid-band
// registry when empty), in spec order.
func (s *Spec) Operators() ([]operators.Operator, error) {
	if len(s.BandPlan.Operators) == 0 {
		return operators.MidBand(), nil
	}
	ops := make([]operators.Operator, 0, len(s.BandPlan.Operators))
	for _, acr := range s.BandPlan.Operators {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// route builds the operators.Scenario for one session seed.
func (s *Spec) route(seed int64) operators.Scenario {
	var sc operators.Scenario
	switch s.Route.Kind {
	case RouteWalking:
		sc = operators.Walking(seed)
	case RouteDriving:
		sc = operators.Driving(seed)
	default:
		sc = operators.Stationary(seed)
	}
	if s.Route.LengthM != 0 {
		sc.RouteLengthM = s.Route.LengthM
	}
	if s.Route.UEDistanceM != 0 {
		sc.UEDistanceM = s.Route.UEDistanceM
	}
	return sc
}

// Duration returns the per-session workload duration: the sessions
// section's for app workloads, the media length for video. Seconds
// round to the nearest nanosecond, so a duration written as
// time.Duration.Seconds() (1.001 for 1001ms) comes back exactly.
func (s *Spec) Duration() time.Duration {
	sec := s.Sessions.DurationSec
	if s.Traffic.App == AppVideo && s.Video != nil {
		sec = s.Video.MediaSec
	}
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// Schedule parses the embedded fault spec (nil when empty). The spec
// was validated at decode time, so an error here means the Spec was
// mutated after Decode.
func (s *Spec) Schedule() (*fault.Schedule, error) {
	if s.Faults == "" {
		return nil, nil
	}
	sched, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	return sched, nil
}

// QuickScale returns a copy of the spec shrunk for CI and golden runs:
// at most 2 sessions, at most 2 simulated seconds per session, at most
// 24 s of media per video session and at most 200 latency probes. The
// copy is re-normalized; its digest differs from the full spec's (it is
// a different scenario, and the manifest should say so).
func (s *Spec) QuickScale() *Spec {
	q := *s
	if q.Video != nil {
		v := *q.Video
		if v.MediaSec > 24 {
			v.MediaSec = 24
		}
		q.Video = &v
	}
	if q.Sessions.Count > 2 {
		q.Sessions.Count = 2
	}
	if q.Sessions.DurationSec > 2 {
		q.Sessions.DurationSec = 2
	}
	if q.Traffic.ProbeCount > 200 {
		q.Traffic.ProbeCount = 200
	}
	q.Normalize()
	return &q
}

// sortedNames returns the names of m in sorted order (listing helper).
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
