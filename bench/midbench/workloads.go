package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/report"
	"github.com/midband5g/midband/internal/scenario"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// workloads names the benchmark's workloads in report order. All but
// figures run in-process inside a midbench child; figures launches the
// real cmd/figures binary once per iteration.
var workloads = []string{"campaign", "cell64", "qoe", "figures"}

// qoePacks are the scenario packs the qoe workload runs, fixed here so
// a pack added to the library changes the qoe workload only when this
// list does.
var qoePacks = []string{"cloud-gaming", "mec-video", "uplink-heavy", "voip", "web-browsing"}

// fleetWorkers is the fleet fan-out of every workload, matching the
// two cores the benchmark is sized for.
const fleetWorkers = 2

// scale sizes the inputs. full is what the benchmark measures, at the
// user-facing defaults of cmd/campaign and the shipped packs; smoke keeps
// the tests fast.
type scale struct {
	ops        []string      // operator acronyms; nil selects the 11 mid-band operators
	sessionDur time.Duration // campaign bulk-transfer length per session
	sessions   int           // campaign sessions per operator
	probes     int           // campaign latency probes per operator
	cellUEs    int           // cell64 UEs per shared cell
	cellDur    time.Duration // cell64 simulated time per cell
	smokePacks bool          // qoe runs one short session of one operator per pack
	figureOnly string        // figures -only selection; empty renders everything
}

var scales = map[string]scale{
	"full": {sessionDur: 10 * time.Second, sessions: 3, probes: 2000, cellUEs: 64, cellDur: 5 * time.Second},
	"smoke": {ops: []string{"V_Sp", "Tmb_US"}, sessionDur: 200 * time.Millisecond, sessions: 1, probes: 50,
		cellUEs: 8, cellDur: 100 * time.Millisecond, smokePacks: true, figureOnly: "table1,tables23"},
}

func (sc scale) operators() ([]operators.Operator, error) {
	if sc.ops == nil {
		return operators.MidBand(), nil
	}
	ops := make([]operators.Operator, 0, len(sc.ops))
	for _, acr := range sc.ops {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// digest hashes everything one iteration produced.
type digest struct{ hash.Hash }

func newHash() digest { return digest{sha256.New()} }

func (d digest) hex() string { return hex.EncodeToString(d.Sum(nil)) }

// inproc is an in-process workload after set-up: run does one
// iteration and returns the digest of everything it produced.
type inproc struct {
	run     func() (string, error)
	cleanup func()
}

// setupWorkload builds a workload's inputs once.
func setupWorkload(name string, seed int64, sc scale) (*inproc, error) {
	switch name {
	case "campaign":
		c, err := newCampaign(seed, sc)
		if err != nil {
			return nil, err
		}
		return &inproc{
			run: func() (string, error) {
				dir, err := os.MkdirTemp(c.root, "iter-")
				if err != nil {
					return "", err
				}
				defer os.RemoveAll(dir)
				d, _, err := c.iterate(dir, nil)
				return d, err
			},
			cleanup: func() { os.RemoveAll(c.root) },
		}, nil
	case "cell64":
		ops, err := sc.operators()
		if err != nil {
			return nil, err
		}
		return &inproc{run: func() (string, error) {
			reps, err := core.RunMultiUE(core.MultiUEConfig{
				Operators: ops, UEsPerCell: sc.cellUEs, Policy: gnb.SchedulerProportionalFair,
				Duration: sc.cellDur, Seed: seed, Workers: fleetWorkers,
			})
			if err != nil {
				return "", err
			}
			h := newHash()
			report.MultiUE(h, reps)
			return h.hex(), nil
		}, cleanup: func() {}}, nil
	case "qoe":
		specs, err := loadPacks(sc)
		if err != nil {
			return nil, err
		}
		return &inproc{run: func() (string, error) {
			h := newHash()
			for _, s := range specs {
				res, err := scenario.Run(context.Background(), s, scenario.Options{Seed: seed, Workers: fleetWorkers})
				if err != nil {
					return "", err
				}
				report.Scenario(h, res)
			}
			return h.hex(), nil
		}, cleanup: func() {}}, nil
	}
	return nil, fmt.Errorf("no in-process workload %q", name)
}

// loadPacks decodes the qoe packs, shrunk below QuickScale at smoke
// scale.
func loadPacks(sc scale) ([]*scenario.Spec, error) {
	specs := make([]*scenario.Spec, 0, len(qoePacks))
	for _, name := range qoePacks {
		s, err := scenario.Pack(name)
		if err != nil {
			return nil, err
		}
		if sc.smokePacks {
			s = s.QuickScale()
			s.Sessions.Count = 1
			s.BandPlan.Operators = s.BandPlan.Operators[:1]
			if s.Video != nil {
				v := *s.Video
				v.MediaSec = 2 * v.ChunkSec
				s.Video = &v
			}
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// campaign is the Table 1 campaign plus the xcaldump read-back of its
// traces.
type campaign struct {
	cfg  core.CampaignConfig
	root string // per-run scratch directory under $TMPDIR
}

func newCampaign(seed int64, sc scale) (*campaign, error) {
	ops, err := sc.operators()
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "midbench-campaign-")
	if err != nil {
		return nil, err
	}
	return &campaign{root: root, cfg: core.CampaignConfig{
		Operators:           ops,
		SessionDuration:     sc.sessionDur,
		SessionsPerOperator: sc.sessions,
		LatencyProbes:       sc.probes,
		TraceFormat:         "xcol",
		Seed:                seed,
		Workers:             fleetWorkers,
	}}, nil
}

// iterate runs the campaign with traces in dir, reads every trace back
// through the columnar scan and returns the digest of the Table 1 text,
// the trace bytes and the scan summaries. The trace files stay in dir.
func (c *campaign) iterate(dir string, m *fleet.Metrics) (string, *core.CampaignStats, error) {
	cfg := c.cfg
	cfg.TraceDir = dir
	cfg.Metrics = m
	stats, err := core.RunCampaign(cfg)
	if err != nil {
		return "", nil, err
	}
	h := newHash()
	report.Table1(h, stats)
	for _, s := range stats.Sessions {
		data, err := os.ReadFile(s.TracePath)
		if err != nil {
			return "", nil, err
		}
		h.Write(data)
		sum, err := summarizeTrace(data, nil)
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", filepath.Base(s.TracePath), err)
		}
		io.WriteString(h, sum.String())
	}
	return h.hex(), stats, nil
}

// kpiSummary is the xcaldump reduction of a trace: volumes plus
// streaming PCell SINR/RSRQ aggregates.
type kpiSummary struct {
	records        int
	dlBits, ulBits float64
	sinr, rsrq     analysis.Accum
	sinrS, rsrqS   *analysis.Sketch
}

func (k *kpiSummary) add(r *xcal.SlotKPI) {
	k.records++
	switch r.Dir {
	case xcal.DL:
		k.dlBits += float64(r.DeliveredBits)
	case xcal.UL:
		k.ulBits += float64(r.DeliveredBits)
	}
	if r.RAT == xcal.NR && r.Carrier == 0 {
		k.sinr.Add(float64(r.SINRdB))
		k.sinrS.Add(float64(r.SINRdB))
		k.rsrq.Add(float64(r.RSRQdB))
		k.rsrqS.Add(float64(r.RSRQdB))
	}
}

func (k *kpiSummary) String() string {
	return fmt.Sprintf("records=%d dl=%.0f ul=%.0f sinr %s rsrq %s\n", k.records, k.dlBits, k.ulBits,
		report.StreamSummary(k.sinr, k.sinrS), report.StreamSummary(k.rsrq, k.rsrqS))
}

// scanTimer splits a scan's wall time between block decoding and the
// summary reduction (timed per block, inside the emit callback).
type scanTimer struct {
	total, summarize time.Duration
}

// summarizeTrace streams a columnar trace through xcol.ScanBlocks into a
// kpiSummary. A non-nil timer receives the scan and reduction times.
func summarizeTrace(data []byte, timer *scanTimer) (*kpiSummary, error) {
	sum := &kpiSummary{sinrS: analysis.NewSketch(), rsrqS: analysis.NewSketch()}
	var r xcal.SlotKPI
	reduce := func(b *xcol.Block) error {
		for i := 0; i < b.Count; i++ {
			b.Row(i, &r)
			sum.add(&r)
		}
		return nil
	}
	emit := reduce
	var start time.Time
	if timer != nil {
		start = now()
		emit = func(b *xcol.Block) error {
			t := now()
			err := reduce(b)
			timer.summarize += now().Sub(t)
			return err
		}
	}
	_, err := xcol.ScanBlocks(context.Background(), xcol.BytesReaderAt(data), int64(len(data)),
		xcol.ScanOptions{Workers: fleetWorkers}, emit)
	if timer != nil {
		timer.total += now().Sub(start)
	}
	return sum, err
}
