package report

import (
	"bytes"
	"strings"
	"testing"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/obs"
	"github.com/midband5g/midband/internal/scenario"
)

// render returns the Scenario output for a synthetic result.
func renderScenario(res *scenario.Result) string {
	var buf bytes.Buffer
	Scenario(&buf, res)
	return buf.String()
}

// Each app renders its own KPI columns; the header always names the
// spec and its digest so artifacts are attributable.
func TestScenarioRendersPerApp(t *testing.T) {
	base := scenario.Result{Name: "t", Digest: "deadbeef", App: scenario.AppWeb}
	cases := []struct {
		app  string
		fill func(*scenario.Result)
		want []string
	}{
		{scenario.AppWeb, func(r *scenario.Result) {
			r.Reports = []scenario.AppReport{{Operator: "V_Sp", Sessions: 2, Pages: 3.5, PageLoadMeanMs: 120.4, PageLoadP95Ms: 201.9}}
		}, []string{"load mean", "V_Sp", "120.4 ms", "201.9 ms"}},
		{scenario.AppVoIP, func(r *scenario.Result) {
			r.Reports = []scenario.AppReport{{Operator: "V_It", Sessions: 2, LatencyMeanMs: 8.63, LatencyP95Ms: 10.76, MOS: 4.39}}
		}, []string{"MOS", "V_It", "4.39"}},
		{scenario.AppGaming, func(r *scenario.Result) {
			r.Reports = []scenario.AppReport{{Operator: "Vzw_US", Sessions: 2, LatencyMeanMs: 9.1, LateFrac: 0.02, DLMbps: 1228.5}}
		}, []string{"late", "DL Mbps", "2.0%", "1228.5"}},
		{scenario.AppUplink, func(r *scenario.Result) {
			r.Reports = []scenario.AppReport{{Operator: "Tmb_US", Sessions: 2, ULMbps: 60.2, NRULMbps: 0, LTEULMbps: 60.2}}
		}, []string{"NR UL", "LTE UL", "60.2"}},
	}
	for _, c := range cases {
		res := base
		res.App = c.app
		c.fill(&res)
		out := renderScenario(&res)
		for _, want := range append(c.want, "Scenario — t (app "+c.app+")", "spec digest: deadbeef") {
			if !strings.Contains(out, want) {
				t.Errorf("app %s: output missing %q:\n%s", c.app, want, out)
			}
		}
	}
}

func TestScenarioRendersBulk(t *testing.T) {
	res := &scenario.Result{
		Name: "b", Digest: "d", App: scenario.AppBulk,
		Bulk: &core.CampaignStats{
			Countries: map[string]bool{"Spain": true},
			Cities:    map[string]bool{"Madrid": true},
			Operators: 1, Minutes: 0.5, DataTB: 0.001,
		},
	}
	out := renderScenario(res)
	for _, want := range []string{"Scenario — b (app bulk)", "countries: Spain", "Table 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("bulk output missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioRendersVideoGridAndFailures(t *testing.T) {
	res := &scenario.Result{
		Name: "v", Digest: "d", App: scenario.AppVideo,
		Video: &scenario.VideoResult{
			Ladder: "400", ChunkSec: 4, HitRatio: 0.85,
			Cells: []scenario.VideoCell{
				{Operator: "V_Sp", ABR: "bola", Edge: scenario.EdgeOn, Sessions: 2, NormBitrate: 0.6, StallPct: 1.5, QoE: 0.585, EdgeHitPct: 90},
				{Operator: "V_Sp", ABR: "bola", Edge: scenario.EdgeOff, Sessions: 2, NormBitrate: 0.55, StallPct: 2, QoE: 0.53},
			},
			Pairs: []scenario.VideoPair{
				{Operator: "V_Sp", ABR: "bola", QoEOn: 0.585, QoEOff: 0.53, Stats: analysis.Paired{N: 2, MeanDiff: 0.055, T: 1.2}},
			},
		},
		Failures: []obs.SessionFailure{{Key: "v/V_Sp/bola/EDGE_ON/1", Attempts: 2, Stage: "abort"}},
	}
	out := renderScenario(res)
	for _, want := range []string{
		"ladder 400, 4 s chunks, edge hit ratio 0.85",
		"EDGE_ON", "EDGE_OFF",
		"paired EDGE_ON − EDGE_OFF",
		"+0.055", "1.20",
		"failed sessions: 1", "stage=abort",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("video output missing %q:\n%s", want, out)
		}
	}

	// A nil grid (all sessions failed) must not panic.
	res.Video = nil
	if out := renderScenario(res); !strings.Contains(out, "failed sessions: 1") {
		t.Errorf("nil-grid output missing failures:\n%s", out)
	}
}
