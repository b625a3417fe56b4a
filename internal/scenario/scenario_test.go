package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/obs"
)

// validBulk is a minimal spec every mutation test starts from.
const validBulk = `{
	"schema": 1,
	"name": "t",
	"traffic": {"app": "bulk"},
	"route": {"kind": "stationary"},
	"band_plan": {"operators": ["V_Sp"]},
	"population": {},
	"sessions": {"count": 1, "duration_sec": 2}
}`

// Every shipped pack must decode through the strict path, keep its map
// key as its name, and hash to a stable digest — the identity run
// manifests record. A digest change here means the pack's semantics
// changed and downstream artifact comparisons silently broke.
func TestPacksDecode(t *testing.T) {
	wantDigests := map[string]string{
		"cloud-gaming": "fe339ccb69",
		"mec-video":    "987421c1ca",
		"uplink-heavy": "8952e01df6",
		"voip":         "b9fb408da3",
		"web-browsing": "fafc0f5918",
	}
	names := PackNames()
	if len(names) != len(wantDigests) {
		t.Fatalf("PackNames() = %v, want %d packs", names, len(wantDigests))
	}
	for _, name := range names {
		s, err := Pack(name)
		if err != nil {
			t.Fatalf("Pack(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("pack %q decodes with name %q", name, s.Name)
		}
		if s.Description == "" || s.Paper == "" {
			t.Errorf("pack %q ships without description or paper citation", name)
		}
		digest, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if got := digest[:10]; got != wantDigests[name] {
			t.Errorf("pack %q digest %s..., want %s... — its canonical spec changed", name, got, wantDigests[name])
		}
	}
	if _, err := Pack("no-such-pack"); err == nil || !strings.Contains(err.Error(), "shipped:") {
		t.Errorf("unknown pack error %v must list the shipped packs", err)
	}
}

// Decode is strict: structural damage is an error naming the problem,
// never a half-parsed spec.
func TestDecodeStructuralErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", ``, "decoding spec"},
		{"not json", `}{`, "decoding spec"},
		{"unknown field", `{"schema": 1, "name": "t", "bogus": 3}`, "bogus"},
		{"trailing data", validBulk + `{"schema": 1}`, "trailing data"},
		{"schema mismatch", `{"schema": 99, "name": "t", "traffic": {"app": "bulk"}, "sessions": {"duration_sec": 1}}`, "schema 99 unsupported"},
		{"wrong type", `{"schema": "one"}`, "decoding spec"},
	}
	for _, c := range cases {
		if _, err := Decode([]byte(c.src)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// hostileSpec asks for 10^8 UEs per cell and 10^6 sessions of 10^6 s
// each; it must fail validation before a run allocates anything.
const hostileSpec = `{"schema": 1, "name": "hostile", "traffic": {"app": "bulk"},
	"population": {"ues_per_cell": 100000000, "cell_policy": "pf"},
	"sessions": {"count": 1000000, "duration_sec": 1000000}}`

// Resource limits: the hostile spec is rejected at decode time, and
// the smallest spec over each limit is rejected while the limit itself
// passes.
func TestValidateResourceLimits(t *testing.T) {
	if _, err := Decode([]byte(hostileSpec)); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Fatalf("Decode(hostile) = %v, want a limit error", err)
	}
	for _, c := range []struct {
		name     string
		fn       func(*Spec, int)
		ok, over int
	}{
		{"ues_per_cell", func(s *Spec, n int) { s.Population.UEsPerCell, s.Population.CellPolicy = n, "pf" }, maxUEsPerCell, maxUEsPerCell + 1},
		{"sessions.count", func(s *Spec, n int) { s.Sessions.Count, s.Sessions.DurationSec = n, 1 }, maxSessions, maxSessions + 1},
		{"session seconds", func(s *Spec, n int) { s.BandPlan.Operators, s.Sessions.DurationSec = nil, float64(n)/11 }, maxSessionSec, maxSessionSec + 11},
	} {
		for _, n := range []int{c.ok, c.over} {
			s, err := Decode([]byte(validBulk))
			if err != nil {
				t.Fatal(err)
			}
			c.fn(s, n)
			err = s.Validate()
			if n == c.ok && err != nil {
				t.Errorf("%s at the limit: Validate = %v", c.name, err)
			}
			if n == c.over && (err == nil || !strings.Contains(err.Error(), "exceeds the limit")) {
				t.Errorf("%s over the limit: Validate = %v, want a limit error", c.name, err)
			}
		}
	}
}

// Validate must reject every cross-field contradiction with a message
// that points at the offending JSON. Each case is the valid bulk spec
// plus one mutation.
func TestValidateCrossField(t *testing.T) {
	mutate := func(fn func(*Spec)) *Spec {
		s, err := Decode([]byte(validBulk))
		if err != nil {
			t.Fatal(err)
		}
		fn(s)
		return s
	}
	cases := []struct {
		name string
		fn   func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = " " }, "no name"},
		{"unknown app", func(s *Spec) { s.Traffic.App = "ftp" }, `unknown traffic app "ftp"`},
		{"web knob on bulk", func(s *Spec) { s.Traffic.PageKB = 100 }, "page_kb/think_time_ms only apply"},
		{"probe knob on bulk", func(s *Spec) { s.Traffic.ProbeCount = 10 }, "probe_count only applies"},
		{"budget knob on bulk", func(s *Spec) { s.Traffic.LatencyBudgetMS = 30 }, "latency_budget_ms only applies"},
		{"negative probes", func(s *Spec) { s.Traffic.App = AppVoIP; s.Traffic.ProbeCount = -1 }, "negative probe_count"},
		{"unknown route", func(s *Spec) { s.Route.Kind = "flying" }, `unknown route kind "flying"`},
		{"stationary length", func(s *Spec) { s.Route.LengthM = 100 }, "length_m set on a stationary route"},
		{"negative geometry", func(s *Spec) { s.Route.Kind = RouteWalking; s.Route.LengthM = -5 }, "negative route geometry"},
		{"unknown operator", func(s *Spec) { s.BandPlan.Operators = []string{"Nope_XX"} }, "band plan"},
		{"duplicate operator", func(s *Spec) { s.BandPlan.Operators = []string{"V_Sp", "V_Sp"} }, "lists V_Sp twice"},
		{"compare_lte on bulk", func(s *Spec) { s.BandPlan.CompareLTE = true }, "compare_lte only applies"},
		{"negative ues", func(s *Spec) { s.Population.UEsPerCell = -2 }, "negative ues_per_cell"},
		{"policy without ues", func(s *Spec) { s.Population.CellPolicy = "pf" }, "without ues_per_cell"},
		{"bad policy", func(s *Spec) { s.Population.UEsPerCell = 4; s.Population.CellPolicy = "lifo" }, "lifo"},
		{"bad faults", func(s *Spec) { s.Faults = "bogus=1" }, `unknown spec key "bogus"`},
		{"inert faults", func(s *Spec) { s.Faults = "seed=4" }, "arms no fault class"},
		{"zero count", func(s *Spec) { s.Sessions.Count = -1 }, "sessions.count -1 < 1"},
		{"no duration", func(s *Spec) { s.Sessions.DurationSec = 0 }, "duration_sec 0 must be positive"},
		{"too many ues", func(s *Spec) { s.Population.UEsPerCell = 1e8 }, "ues_per_cell 100000000 exceeds the limit of 4096"},
		{"sub-slot multi-UE", func(s *Spec) {
			s.Population.UEsPerCell, s.Population.CellPolicy = 4, "pf"
			s.Sessions.DurationSec = 0.0001
		}, "100µs is shorter than V_Sp's 500µs slot"},
		{"too many sessions", func(s *Spec) { s.Sessions.Count = 1e6 }, "sessions.count 1000000 exceeds the limit of 10000"},
		{"too much session time", func(s *Spec) { s.Sessions.DurationSec = 2e6 }, "simulated seconds exceeds the limit of 1e+06"},
		{"huge video", func(s *Spec) {
			s.Traffic.App = AppVideo
			s.Sessions.DurationSec = 0
			s.Video = &VideoGrid{ABRs: []string{"bola"}, Ladder: "400", ChunkSec: 4, MediaSec: 1e300}
		}, "simulated seconds exceeds the limit"},
		{"video section on bulk", func(s *Spec) { s.Video = &VideoGrid{ABRs: []string{"bola"}, Ladder: "400", ChunkSec: 4, MediaSec: 8} }, `video section set but traffic app is "bulk"`},
	}
	for _, c := range cases {
		if err := mutate(c.fn).Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want it to mention %q", c.name, err, c.want)
		}
	}
	oneSlot := mutate(func(s *Spec) {
		s.Population.UEsPerCell, s.Population.CellPolicy = 4, "pf"
		s.Sessions.DurationSec = 0.0005
	})
	if err := oneSlot.Validate(); err != nil {
		t.Errorf("a one-slot multi-UE session: Validate = %v, want nil", err)
	}
}

func TestValidateVideoGrid(t *testing.T) {
	base := func() *Spec {
		s, err := Pack("mec-video")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		fn   func(*Spec)
		want string
	}{
		{"duration on video", func(s *Spec) { s.Sessions.DurationSec = 5 }, "drop sessions.duration_sec"},
		{"no video section", func(s *Spec) { s.Video = nil }, "requires a video section"},
		{"no abrs", func(s *Spec) { s.Video.ABRs = nil }, "at least one ABR"},
		{"unknown abr", func(s *Spec) { s.Video.ABRs = []string{"oracle"} }, `unknown ABR "oracle"`},
		{"duplicate abr", func(s *Spec) { s.Video.ABRs = []string{"bola", "bola"} }, `lists ABR "bola" twice`},
		{"unknown ladder", func(s *Spec) { s.Video.Ladder = "8k" }, `unknown ladder "8k"`},
		{"zero chunk", func(s *Spec) { s.Video.ChunkSec = 0 }, "chunk_sec 0 must be positive"},
		{"short media", func(s *Spec) { s.Video.MediaSec = 1 }, "shorter than one chunk"},
		{"hit ratio", func(s *Spec) { s.Video.Edge.HitRatio = 1.5 }, "hit_ratio 1.5 outside [0,1]"},
		{"negative rtt", func(s *Spec) { s.Video.Edge.EdgeRTTMS = -1 }, "negative edge RTTs"},
		{"edge beyond origin", func(s *Spec) { s.Video.Edge.EdgeRTTMS = 50 }, "the cache must be closer"},
	}
	for _, c := range cases {
		s := base()
		c.fn(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

// Normalize is idempotent and materializes every default, so Canonical
// output round-trips through Decode to a DeepEqual spec.
func TestNormalizeIdempotentAndCanonicalRoundTrip(t *testing.T) {
	packs, err := Packs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range packs {
		twice := *s
		twice.Normalize()
		if !reflect.DeepEqual(&twice, s) {
			t.Errorf("pack %s: Normalize is not idempotent: %+v vs %+v", s.Name, twice, *s)
		}
		canonical, err := s.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		back, err := Decode(canonical)
		if err != nil {
			t.Fatalf("pack %s: canonical JSON does not re-decode: %v", s.Name, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("pack %s: Decode(Canonical()) is not the identity", s.Name)
		}
	}
}

// Defaults: a sparse spec fills in documented values.
func TestNormalizeDefaults(t *testing.T) {
	s, err := Decode([]byte(`{
		"schema": 1, "name": "defaults",
		"traffic": {"app": "web"},
		"route": {},
		"band_plan": {}, "population": {},
		"sessions": {"duration_sec": 3}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.SeedDomain != "defaults" {
		t.Errorf("seed domain %q, want the spec name", s.SeedDomain)
	}
	if s.Route.Kind != RouteStationary || s.Sessions.Count != 1 {
		t.Errorf("route/count defaults not applied: %+v", s)
	}
	if s.Traffic.PageKB != 1500 || s.Traffic.ThinkTimeMS != 2000 {
		t.Errorf("web defaults not applied: %+v", s.Traffic)
	}
	if s.Duration() != 3*time.Second {
		t.Errorf("Duration() = %v, want 3s", s.Duration())
	}
	ops, err := s.Operators()
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) < 5 {
		t.Errorf("empty band plan resolved to %d operators, want the full mid-band registry", len(ops))
	}
	sched, err := s.Schedule()
	if err != nil || sched != nil {
		t.Errorf("Schedule() on a fault-free spec = (%v, %v), want (nil, nil)", sched, err)
	}
}

// QuickScale shrinks without mutating the original, still validates,
// and changes the digest — a quick run must be attributable as one.
func TestQuickScale(t *testing.T) {
	packs, err := Packs()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range packs {
		before, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		q := s.QuickScale()
		after, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if before != after {
			t.Fatalf("pack %s: QuickScale mutated the receiver", s.Name)
		}
		if err := q.Validate(); err != nil {
			t.Errorf("pack %s: quick spec invalid: %v", s.Name, err)
		}
		if q.Sessions.Count > 2 || q.Sessions.DurationSec > 2 || q.Traffic.ProbeCount > 200 {
			t.Errorf("pack %s: quick spec not shrunk: %+v", s.Name, q)
		}
		if q.Video != nil && q.Video.MediaSec > 24 {
			t.Errorf("pack %s: quick media_sec %g > 24", s.Name, q.Video.MediaSec)
		}
		qd, err := q.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if shrunk := !reflect.DeepEqual(q, s); shrunk && qd == before {
			t.Errorf("pack %s: quick spec differs but digests collide", s.Name)
		}
	}
}

func TestStampManifest(t *testing.T) {
	s, err := Pack("voip")
	if err != nil {
		t.Fatal(err)
	}
	var m obs.RunManifest
	if err := s.StampManifest(&m); err != nil {
		t.Fatal(err)
	}
	digest, err := s.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if m.Scenario != "voip" || m.ScenarioDigest != digest {
		t.Errorf("manifest stamped as (%q, %q), want (voip, %s)", m.Scenario, m.ScenarioDigest, digest)
	}
}

// Duration must return exactly the time.Duration whose Seconds() the
// spec holds, so a flag like -duration 1.001s survives the trip through
// sessions.duration_sec: truncating sec*1e9 would give 1.000999999s.
func TestDurationExact(t *testing.T) {
	s := &Spec{Traffic: Traffic{App: AppBulk}, Sessions: Sessions{DurationSec: 1.001}}
	if got := s.Duration(); got != 1001*time.Millisecond {
		t.Errorf("Duration() for 1.001 s = %v, want 1.001s", got)
	}
	for d := time.Duration(0); d <= time.Hour; d += time.Millisecond {
		s.Sessions.DurationSec = d.Seconds()
		if got := s.Duration(); got != d {
			t.Fatalf("Duration() for %v (%v s) = %v", d, d.Seconds(), got)
		}
	}
}
