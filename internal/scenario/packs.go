package scenario

import (
	"fmt"
	"os"
	"strings"
)

// The compiled-in pack library. Every pack is stored as the JSON it
// would live in on disk and goes through the same strict Decode path a
// user file does, so a pack that would not validate cannot ship —
// TestPacksDecode pins that, and the conformance suite pins each pack's
// Quick-scale report artifacts byte-for-byte.
//
// Pack seeds: nothing here fixes a base seed — packs only carry a
// seed_domain — so the same pack can run at any -seed while staying
// isolated from every other pack's random streams.
var packSources = map[string]string{
	// Web browsing: the paper's QoE discussion spans latency-bound
	// interactive workloads beyond video; page-load time over mid-band
	// is dominated by DL goodput ramps and think-time re-entry.
	"web-browsing": `{
		"schema": 1,
		"name": "web-browsing",
		"description": "Sequential page fetches with think time over mid-band: page-load latency KPIs",
		"paper": "§4.3, §6 (QoE beyond video)",
		"traffic": {"app": "web", "page_kb": 1500, "think_time_ms": 2000},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["V_Sp", "T_Ge", "Tmb_US"]},
		"population": {},
		"sessions": {"count": 2, "duration_sec": 4}
	}`,

	// VoIP: one-way mouth-to-ear latency scored with the ITU-T G.107
	// E-model; the §4.3 user-plane latency distributions are exactly
	// what decides whether mid-band VoIP holds a toll-quality MOS.
	"voip": `{
		"schema": 1,
		"name": "voip",
		"description": "User-plane latency probes scored with the E-model MOS (toll quality ≥ 4.0)",
		"paper": "§4.3 (user-plane latency)",
		"traffic": {"app": "voip", "probe_count": 400},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["V_It", "O_Fr"]},
		"population": {},
		"sessions": {"count": 2, "duration_sec": 2}
	}`,

	// Cloud gaming: latency-bound — a frame that misses its delivery
	// budget is a dropped frame regardless of goodput headroom.
	"cloud-gaming": `{
		"schema": 1,
		"name": "cloud-gaming",
		"description": "Latency-budget violations plus goodput headroom for a 30 ms frame budget",
		"paper": "§4.3 (latency-bound applications)",
		"traffic": {"app": "gaming", "probe_count": 400, "latency_budget_ms": 30},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["Vzw_US", "T_Ge"]},
		"population": {},
		"sessions": {"count": 2, "duration_sec": 2}
	}`,

	// Uplink-heavy: the 4G-vs-5G low/mid-band comparison of Rochman et
	// al. — NSA uplink routing decides how much traffic still rides the
	// LTE anchor, and the per-leg split is the comparison.
	"uplink-heavy": `{
		"schema": 1,
		"name": "uplink-heavy",
		"description": "Uplink-saturating transfer with the NSA NR-vs-LTE leg split (4G vs 5G)",
		"paper": "§4.2; Rochman et al. (PAPERS.md)",
		"traffic": {"app": "uplink"},
		"route": {"kind": "walking"},
		"band_plan": {"operators": ["Tmb_US", "V_Sp", "S_Fr"], "compare_lte": true},
		"population": {},
		"sessions": {"count": 2, "duration_sec": 3}
	}`,

	// MEC video: the ABR × {EDGE_ON, EDGE_OFF} grid with paired
	// per-cell statistics — the SNIPPETS.md Snippet 1 evaluation
	// pipeline shape on top of the §6 DASH player.
	"mec-video": `{
		"schema": 1,
		"name": "mec-video",
		"description": "DASH ABR × {EDGE_ON, EDGE_OFF} grid with paired per-cell QoE statistics",
		"paper": "§6; SNIPPETS.md Snippet 1 (MEC ABR×caching pipeline)",
		"traffic": {"app": "video"},
		"route": {"kind": "stationary"},
		"band_plan": {"operators": ["V_Sp", "O_Sp100"]},
		"population": {},
		"sessions": {"count": 2},
		"video": {
			"abrs": ["bola", "throughput", "dynamic"],
			"ladder": "400",
			"chunk_sec": 4,
			"media_sec": 60,
			"edge": {"hit_ratio": 0.85, "origin_rtt_ms": 36, "edge_rtt_ms": 4}
		}
	}`,
}

// PackNames lists the shipped packs in sorted order.
func PackNames() []string { return sortedNames(packSources) }

// Pack decodes a shipped pack by name. Every pack goes through the
// strict Decode path, so the returned spec is normalized and validated.
func Pack(name string) (*Spec, error) {
	src, ok := packSources[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown pack %q (shipped: %v)", name, PackNames())
	}
	s, err := Decode([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("scenario: pack %s: %w", name, err)
	}
	return s, nil
}

// Load resolves a command-line spec argument: a shipped pack name
// first, then a spec file path through the same strict Decode.
func Load(arg string) (*Spec, error) {
	if _, ok := packSources[arg]; ok {
		return Pack(arg)
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		return nil, fmt.Errorf("scenario: %q is neither a shipped pack (%s) nor a readable spec file: %w",
			arg, strings.Join(PackNames(), ", "), err)
	}
	return Decode(data)
}

// Packs decodes the whole library in sorted name order.
func Packs() ([]*Spec, error) {
	out := make([]*Spec, 0, len(packSources))
	for _, name := range PackNames() {
		s, err := Pack(name)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}
