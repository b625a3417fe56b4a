package scenario_test

import (
	"reflect"
	"testing"

	"github.com/midband5g/midband/internal/scenario"
)

// FuzzDecodeScenario: malformed spec bytes must produce an error, never
// a panic, and every spec that decodes must round-trip losslessly
// through its canonical JSON — Decode(Canonical()) is the identity and
// preserves the digest. The corpus seeds every shipped pack plus
// structurally-interesting fragments.
func FuzzDecodeScenario(f *testing.F) {
	for _, name := range scenario.PackNames() {
		s, err := scenario.Pack(name)
		if err != nil {
			f.Fatal(err)
		}
		canonical, err := s.Canonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(canonical)
	}
	for _, seed := range []string{
		``,
		`{}`,
		`null`,
		`[]`,
		`{"schema": 1}`,
		`{"schema": 1, "name": "x", "traffic": {"app": "bulk"}, "sessions": {"duration_sec": 1}}`,
		`{"schema": 1, "name": "x", "traffic": {"app": "video"}, "sessions": {}, "video": {"abrs": ["bola"], "edge": {}}}`,
		`{"schema": 1, "name": "x", "faults": "rlf=1e-4"}`,
		`{"schema": 1, "name": "x", "unknown": true}`,
		`{"schema": 1, "name": "x"} trailing`,
		`{"schema": 1e300, "name": "x"}`,
		// Hostile sizes: 10^8 UEs per cell, 10^6 sessions of 10^6 s.
		`{"schema": 1, "name": "x", "traffic": {"app": "bulk"}, "population": {"ues_per_cell": 100000000}, "sessions": {"count": 1000000, "duration_sec": 1000000}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.Decode(data)
		if err != nil {
			return
		}
		canonical, err := s.Canonical()
		if err != nil {
			t.Fatalf("decoded spec does not canonicalize: %v", err)
		}
		back, err := scenario.Decode(canonical)
		if err != nil {
			t.Fatalf("canonical JSON does not re-decode: %v\n%s", err, canonical)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("round trip lost information:\nfirst:  %+v\nsecond: %+v", s, back)
		}
		d1, err := s.Digest()
		if err != nil {
			t.Fatal(err)
		}
		d2, err := back.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if d1 != d2 {
			t.Fatalf("digest changed across the round trip: %s vs %s", d1, d2)
		}
	})
}
