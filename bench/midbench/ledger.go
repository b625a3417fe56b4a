package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/gnb"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/scenario"
	"github.com/midband5g/midband/internal/video"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// The ledger is the traced run's in-process half (`midbench -child
// ledger`). It times the calls the harness makes into each layer's
// public functions. Where a layer sits inside a call the harness cannot
// split, it replays the same operator configs and seeds at successive
// depths — channel, carrier, link, iperf.Run, traced RunIperf — and a
// layer's own time is the difference between neighbouring depths.

// ledgerReps is how many times the campaign replay runs; every per-unit
// cost is the median over the repetitions.
const ledgerReps = 5

// ledgerReport is what the ledger child prints on stdout.
type ledgerReport struct {
	Metrics map[string]float64 `json:"metrics"`
	// CampaignDigest is the digest of the campaign iteration whose
	// traces the replays must reproduce; the parent checks it.
	CampaignDigest string        `json:"campaign_digest"`
	Checks         []checkResult `json:"checks"`
	Notes          []string      `json:"notes"`
	Spans          []span        `json:"spans"`
}

// checkResult is one pass/fail correctness check of a traced run.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

type ledger struct {
	seed int64
	sc   scale
	tmp  string
	tr   tracer
	root int
	rep  ledgerReport
	cals []float64 // calibration CPU seconds, taken between passes
}

// calibrate records the host's speed between two passes.
func (l *ledger) calibrate() {
	l.cals = append(l.cals, calibrate().Seconds())
}

// runLedger measures every in-process layer metric and prints the report.
func runLedger(seed int64, sc scale, out io.Writer) error {
	tmp, err := os.MkdirTemp("", "midbench-ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	l := &ledger{seed: seed, sc: sc, tmp: tmp, rep: ledgerReport{Metrics: map[string]float64{}}}
	rt0 := runtimeStats()
	l.root = l.tr.begin(0, "ledger", "midbench.ledger")
	for _, section := range []func() error{l.campaign, l.cell64, l.qoe} {
		if err := section(); err != nil {
			return err
		}
	}
	l.tr.end(l.root)
	rt1 := runtimeStats()
	l.rep.Metrics["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.usedCPU - rt0.usedCPU)
	// The passes run on one core at a time, so every timing is scaled to
	// the nominal host by the calibrations' CPU speed (see calib.go).
	f := calibNominal.Seconds() / median(l.cals)
	for _, m := range perLayer {
		if v, ok := l.rep.Metrics[m.Name]; ok && isTime(m.Unit) {
			l.rep.Metrics[m.Name] = v * f
		}
	}
	l.note("host calibration: timings scaled by %.3f (median of %d calibrations)", f, len(l.cals))
	l.rep.Spans = l.tr.spans
	return json.NewEncoder(out).Encode(l.rep)
}

func (l *ledger) check(name string, ok bool, detail string) {
	l.rep.Checks = append(l.rep.Checks, checkResult{Name: name, OK: ok, Detail: detail})
}

func (l *ledger) note(format string, args ...any) {
	l.rep.Notes = append(l.rep.Notes, fmt.Sprintf(format, args...))
}

// stamp is a point in a single-goroutine pass: the wall time places its
// span, and the process CPU time measures its cost. CPU time leaves out
// steal, which comes in bursts long enough to skew whole repetitions.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func mark() stamp { return stamp{wall: now(), cpu: cpuTime()} }

// cpuTo is the CPU time from s to e.
func (s stamp) cpuTo(e stamp) time.Duration { return e.cpu - s.cpu }

// span records a campaign span from s to e.
func (l *ledger) span(parent int, name string, s, e stamp) {
	l.tr.add(parent, "campaign", name, s.wall, e.wall.Sub(s.wall))
}

// rtStats are cumulative runtime counters.
type rtStats struct {
	allocBytes float64 // heap bytes allocated
	gcCPU      float64 // CPU seconds spent in the garbage collector
	usedCPU    float64 // CPU seconds used (available minus idle)
}

func runtimeStats() rtStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return rtStats{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		usedCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// timedWriter wraps a trace writer, counting every KPI write and timing
// every 61st, so the per-record cost is known without a clock read per
// record. The period is prime so the samples do not alias with the
// power-of-two block size whose flushes land on one call in BlockCap.
// Every 64th sample also becomes a span.
type timedWriter struct {
	xcal.TraceWriter
	calls, sampled int64
	sampledNs      time.Duration
	tr             *tracer
	parent         int
}

const writeSamplePeriod = 61

func (w *timedWriter) WriteKPI(k *xcal.SlotKPI) error {
	w.calls++
	if w.calls%writeSamplePeriod != 0 {
		return w.TraceWriter.WriteKPI(k)
	}
	t := now()
	err := w.TraceWriter.WriteKPI(k)
	d := now().Sub(t)
	w.sampled++
	w.sampledNs += d
	if w.sampled%64 == 0 {
		w.tr.add(w.parent, "campaign", "xcol.Writer.WriteKPI", t, d)
	}
	return err
}

// replayTotals sums one repetition of the campaign replay over every
// operator's primary session.
type replayTotals struct {
	// Depth passes, measured part only (warm-up stepped untimed).
	channel, carrier, link, iperf time.Duration
	// The traced session, call by call.
	setup, warmup, runIperf, close, latency time.Duration
	// Whole traced sessions with and without the instrumentation.
	traced, plain   time.Duration
	scan, summarize time.Duration
	writeSampledNs  time.Duration

	sessions, carrierSlots, steps, records, bytes, probes, allocBytes int64
	writeCalls, writeSampled                                          int64
}

// ticks counts the slots a carrier with slot length slot steps during
// the first n link steps of length step.
func ticks(n int, step, slot time.Duration) int {
	return int((time.Duration(n)*step + slot - 1) / slot)
}

// campaign runs one campaign iteration for reference traces and the
// runtime counters, then replays every operator's primary session at
// each depth ledgerReps times.
func (l *ledger) campaign() error {
	sec := l.tr.begin(l.root, "campaign", "campaign")
	defer l.tr.end(sec)
	c, err := newCampaign(l.seed, l.sc)
	if err != nil {
		return err
	}
	defer os.RemoveAll(c.root)
	warmDir, refDir := filepath.Join(c.root, "warm"), filepath.Join(c.root, "ref")
	for _, d := range []string{warmDir, refDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	if _, _, err := c.iterate(warmDir, nil); err != nil {
		return err
	}
	l.calibrate()
	var fm fleet.Metrics
	rt0, cpu0 := runtimeStats(), cpuTime()
	id := l.tr.begin(sec, "campaign", "core.RunCampaign+xcol.ScanBlocks")
	digest, stats, err := c.iterate(refDir, &fm)
	l.tr.end(id)
	if err != nil {
		return err
	}
	rt1, cpu1 := runtimeStats(), cpuTime()
	l.rep.CampaignDigest = digest
	l.rep.Metrics["runtime.alloc_mb"] = (rt1.allocBytes - rt0.allocBytes) / (1 << 20)
	l.rep.Metrics["runtime.cpu_ns_per_slot"] = float64(cpu1-cpu0) / float64(fm.SlotsSimulated.Load())

	refs := map[string]string{}
	for _, s := range stats.Sessions {
		refs[s.Operator] = s.TracePath
	}
	reps := make([]replayTotals, ledgerReps)
	for r := range reps {
		for _, op := range c.cfg.Operators {
			if err := l.replay(sec, op, refs[op.Acronym], r, &reps[r]); err != nil {
				return fmt.Errorf("replay %s: %w", op.Acronym, err)
			}
		}
		l.calibrate()
	}
	l.campaignMetrics(reps)
	return nil
}

// replay runs one operator's primary session at every depth.
func (l *ledger) replay(sec int, op operators.Operator, refPath string, rep int, t *replayTotals) error {
	id := l.tr.begin(sec, "campaign", "replay "+op.Acronym)
	defer l.tr.end(id)
	sc := operators.Stationary(fleet.SplitSeed(l.seed, op.Acronym, 0))
	cfg, err := op.LinkConfig(sc)
	if err != nil {
		return err
	}
	if err := l.replayDepths(id, cfg, t); err != nil {
		return err
	}
	// The traced session, with and without the instrumentation, in
	// alternating order so neither side always runs on warmer caches.
	traced := func() error { return l.tracedSession(id, op, sc, refPath, rep, t) }
	plain := func() error { return l.plainSession(op, sc, t) }
	order := []func() error{traced, plain}
	if rep%2 == 1 {
		order[0], order[1] = plain, traced
	}
	for _, f := range order {
		if err := f(); err != nil {
			return err
		}
	}
	return nil
}

// replayDepths steps the session's channels, then its carriers, then
// its link, then the untraced iperf.Run, each from the same configs and
// seeds, timing only the measured part after a 1 s warm-up.
func (l *ledger) replayDepths(parent int, cfg net5g.LinkConfig, t *replayTotals) error {
	link, err := net5g.NewLink(cfg)
	if err != nil {
		return err
	}
	step := link.SlotDuration()
	warm, meas := int(time.Second/step), int(l.sc.sessionDur/step)
	preferLTE := cfg.LTEAnchor != nil && cfg.ULPolicy == lte.ULPreferLTE
	carriers := append([]*gnb.Carrier(nil), link.Carriers()...)
	if a := link.Anchor(); a != nil {
		carriers = append(carriers, a)
	}

	start := mark()
	for i, c := range carriers {
		cc := c.Config()
		w := ticks(warm, step, c.SlotDuration())
		m := ticks(warm+meas, step, c.SlotDuration()) - w
		t.carrierSlots += int64(m)
		ch, err := channel.New(cc.Channel)
		if err != nil {
			return err
		}
		var s channel.Sample
		ch.SetRSRQNeeded(false)
		for k := 0; k < w; k++ {
			ch.StepInto(&s)
		}
		ch.SetRSRQNeeded(true)
		t0 := mark()
		for k := 0; k < m; k++ {
			ch.StepInto(&s)
		}
		t.channel += t0.cpuTo(mark())

		// Carrier demand mirrors the link's: DL on every NR carrier, UL
		// on the PCell, or on the LTE anchor when the policy prefers it.
		anchor := i == len(link.Carriers())
		dl := gnb.Demand{Active: !anchor, Share: 1}
		ul := gnb.Demand{Active: (i == 0 && !preferLTE) || (anchor && preferLTE), Share: 1}
		gc, err := gnb.NewCarrier(cc)
		if err != nil {
			return err
		}
		var r gnb.SlotResult
		gc.SetRSRQNeeded(false)
		for k := 0; k < w; k++ {
			gc.StepInto(&r, dl, ul)
		}
		gc.SetRSRQNeeded(true)
		t0 = mark()
		for k := 0; k < m; k++ {
			gc.StepInto(&r, dl, ul)
		}
		t.carrier += t0.cpuTo(mark())
	}
	l.span(parent, "channel+carrier depths", start, mark())

	var r net5g.StepResult
	link.SetRSRQNeeded(false)
	for k := 0; k < warm; k++ {
		link.StepInto(&r, net5g.Saturate)
	}
	link.SetRSRQNeeded(true)
	t0 := mark()
	for k := 0; k < meas; k++ {
		link.StepInto(&r, net5g.Saturate)
	}
	t1 := mark()
	t.link += t0.cpuTo(t1)
	l.span(parent, "net5g.Link.StepInto", t0, t1)
	t.steps += int64(meas)

	link, err = net5g.NewLink(cfg)
	if err != nil {
		return err
	}
	link.SetRSRQNeeded(false)
	if _, err := iperf.Run(link, iperf.Config{Duration: time.Second, Discard: true}); err != nil {
		return err
	}
	link.SetRSRQNeeded(true)
	a0 := runtimeStats().allocBytes
	t0 = mark()
	if _, err := iperf.Run(link, iperf.Config{Duration: l.sc.sessionDur, Demand: net5g.Saturate}); err != nil {
		return err
	}
	t1 = mark()
	t.allocBytes += int64(runtimeStats().allocBytes - a0)
	t.iperf += t0.cpuTo(t1)
	l.span(parent, "iperf.Run", t0, t1)
	return nil
}

// tracedSession is the campaign's primary session call by call, with a
// timing wrapper around the trace writer. Its trace must equal the
// campaign's byte for byte.
func (l *ledger) tracedSession(parent int, op operators.Operator, sc operators.Scenario, refPath string, rep int, t *replayTotals) error {
	path := filepath.Join(l.tmp, op.Acronym+"-traced.xcol")
	defer os.Remove(path)
	t0 := mark()
	sess, err := core.NewSession(op, sc)
	if err != nil {
		return err
	}
	t1 := mark()
	if err := sess.WarmUp(); err != nil {
		return err
	}
	t2 := mark()
	xw, f, err := xcol.CreateFileVia(path, sess.Meta(), nil)
	if err != nil {
		return err
	}
	tw := &timedWriter{TraceWriter: xw, tr: &l.tr, parent: parent}
	_, err = sess.RunIperf(l.sc.sessionDur, net5g.Saturate, tw)
	t3 := mark()
	if err == nil {
		err = xw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t4 := mark()
	if _, _, err := sess.RunLatency(l.sc.probes, 0.08); err != nil {
		return err
	}
	t5 := mark()
	for _, s := range []struct {
		name   string
		t0, t1 stamp
	}{
		{"core.NewSession", t0, t1}, {"core.Session.WarmUp", t1, t2}, {"core.Session.RunIperf", t2, t3},
		{"xcol.Writer.Close", t3, t4}, {"core.Session.RunLatency", t4, t5},
	} {
		l.span(parent, s.name, s.t0, s.t1)
	}
	t.setup += t0.cpuTo(t1)
	t.warmup += t1.cpuTo(t2)
	t.runIperf += t2.cpuTo(t3)
	t.close += t3.cpuTo(t4)
	t.latency += t4.cpuTo(t5)
	t.traced += t0.cpuTo(t5)
	t.sessions++
	t.probes += int64(l.sc.probes)
	t.writeCalls += tw.calls
	t.writeSampled += tw.sampled
	t.writeSampledNs += tw.sampledNs
	t.records += int64(xw.Records())

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	t.bytes += int64(len(data))
	if rep == 0 {
		ref, err := os.ReadFile(refPath)
		if err != nil {
			return err
		}
		l.check("replayed trace "+op.Acronym+" equals campaign trace", bytes.Equal(data, ref),
			fmt.Sprintf("%d vs %d bytes", len(data), len(ref)))
	}
	var st scanTimer
	s0 := now()
	if _, err := summarizeTrace(data, &st); err != nil {
		return err
	}
	l.tr.add(parent, "campaign", "xcol.ScanBlocks+analysis", s0, now().Sub(s0))
	t.scan += st.total
	t.summarize += st.summarize
	return nil
}

// plainSession is tracedSession without any instrumentation, for the
// tracing overhead.
func (l *ledger) plainSession(op operators.Operator, sc operators.Scenario, t *replayTotals) error {
	path := filepath.Join(l.tmp, op.Acronym+"-plain.xcol")
	defer os.Remove(path)
	t0 := mark()
	sess, err := core.NewSession(op, sc)
	if err != nil {
		return err
	}
	xw, f, err := xcol.CreateFileVia(path, sess.Meta(), nil)
	if err != nil {
		return err
	}
	_, err = sess.RunIperf(l.sc.sessionDur, net5g.Saturate, xw)
	if err == nil {
		err = xw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if _, _, err := sess.RunLatency(l.sc.probes, 0.08); err != nil {
		return err
	}
	t.plain += t0.cpuTo(mark())
	return nil
}

// campaignMetrics turns the replay repetitions into per-unit layer costs
// (medians over repetitions) and reconciles them with the traced total.
func (l *ledger) campaignMetrics(reps []replayTotals) {
	med := func(f func(t *replayTotals) float64) float64 {
		vs := make([]float64, len(reps))
		for i := range reps {
			vs[i] = f(&reps[i])
		}
		return median(vs)
	}
	ns := func(d time.Duration) float64 { return float64(d) }
	writeEst := func(t *replayTotals) float64 {
		return float64(t.writeCalls) * ns(t.writeSampledNs) / float64(t.writeSampled)
	}
	m := l.rep.Metrics
	m["channel.step_ns"] = med(func(t *replayTotals) float64 { return ns(t.channel) / float64(t.carrierSlots) })
	m["gnb.carrier_step_ns"] = med(func(t *replayTotals) float64 { return ns(t.carrier-t.channel) / float64(t.carrierSlots) })
	m["net5g.link_step_ns"] = med(func(t *replayTotals) float64 { return ns(t.link-t.carrier) / float64(t.steps) })
	m["iperf.step_ns"] = med(func(t *replayTotals) float64 { return ns(t.iperf-t.link) / float64(t.steps) })
	m["iperf.alloc_b_per_step"] = med(func(t *replayTotals) float64 { return float64(t.allocBytes) / float64(t.steps) })
	m["core.capture_ns"] = med(func(t *replayTotals) float64 { return (ns(t.runIperf-t.iperf) - writeEst(t)) / float64(t.steps) })
	m["core.session_setup_us"] = med(func(t *replayTotals) float64 { return ns(t.setup) / float64(t.sessions) / 1e3 })
	m["core.warmup_ms"] = med(func(t *replayTotals) float64 { return ns(t.warmup) / float64(t.sessions) / 1e6 })
	m["net5g.latency_probe_ns"] = med(func(t *replayTotals) float64 { return ns(t.latency) / float64(t.probes) })
	m["xcol.write_ns_per_rec"] = med(func(t *replayTotals) float64 { return ns(t.writeSampledNs) / float64(t.writeSampled) })
	m["xcol.close_ms"] = med(func(t *replayTotals) float64 { return ns(t.close) / float64(t.sessions) / 1e6 })
	m["xcol.bytes_per_rec"] = float64(reps[0].bytes) / float64(reps[0].records)
	m["xcol.scan_ns_per_rec"] = med(func(t *replayTotals) float64 { return ns(t.scan-t.summarize) / float64(t.records) })
	m["analysis.summarize_ns_per_rec"] = med(func(t *replayTotals) float64 { return ns(t.summarize) / float64(t.records) })
	traced := med(func(t *replayTotals) float64 { return ns(t.traced) })
	m["trace.overhead_frac"] = traced/med(func(t *replayTotals) float64 { return ns(t.plain) }) - 1

	// Reconciliation: each layer's own cost times its count, plus the
	// per-session calls, must add up to the traced serial total.
	c := &reps[0]
	parts := []struct {
		name string
		ns   float64
	}{
		{"core.NewSession", med(func(t *replayTotals) float64 { return ns(t.setup) })},
		{"core.Session.WarmUp", med(func(t *replayTotals) float64 { return ns(t.warmup) })},
		{"channel", m["channel.step_ns"] * float64(c.carrierSlots)},
		{"gnb.Carrier", m["gnb.carrier_step_ns"] * float64(c.carrierSlots)},
		{"net5g.Link", m["net5g.link_step_ns"] * float64(c.steps)},
		{"iperf.Run", m["iperf.step_ns"] * float64(c.steps)},
		{"core capture", m["core.capture_ns"] * float64(c.steps)},
		{"xcol.Writer.WriteKPI", m["xcol.write_ns_per_rec"] * float64(c.writeCalls)},
		{"xcol.Writer.Close", med(func(t *replayTotals) float64 { return ns(t.close) })},
		{"core.Session.RunLatency", med(func(t *replayTotals) float64 { return ns(t.latency) })},
	}
	sum := 0.0
	for _, p := range parts {
		sum += p.ns
	}
	for _, p := range parts {
		l.note("campaign ledger (unscaled)  %-24s %8.2f ms  %5.1f%%", p.name, p.ns/1e6, 100*p.ns/sum)
	}
	resid := sum/traced - 1
	l.note("campaign ledger (unscaled)  sum %.2f ms vs traced serial total %.2f ms (%+.1f%%)", sum/1e6, traced/1e6, 100*resid)
	l.check("campaign ledger reconciles within 10%", math.Abs(resid) <= 0.10, fmt.Sprintf("%+.1f%%", 100*resid))
}

// cell64 builds and steps each operator's shared cell exactly as
// core.RunMultiUE does, timing construction and the batch steps apart.
func (l *ledger) cell64() error {
	sec := l.tr.begin(l.root, "cell64", "cell64")
	defer l.tr.end(sec)
	ops, err := l.sc.operators()
	if err != nil {
		return err
	}
	n := l.sc.cellUEs
	var setup, stepping time.Duration
	var ueSlots, fast, ues int
	for _, op := range ops {
		seed := fleet.SplitSeed(l.seed, "core/multiue/"+op.Acronym, 0)
		cc, err := op.CarrierConfig(0, operators.Stationary(seed))
		if err != nil {
			return err
		}
		t0 := now()
		cell, err := gnb.NewCell(gnb.CellConfig{
			Carrier: cc, UEs: core.UEPositions(seed, n), Policy: gnb.SchedulerProportionalFair,
			Model: gnb.CellModelContention, Seed: seed,
		})
		if err != nil {
			return err
		}
		cb, err := gnb.NewCellBatch(cell)
		if err != nil {
			return err
		}
		t1 := now()
		steps := int(l.sc.cellDur / cb.SlotDuration())
		bits := make([]float64, n)
		for s := 0; s < steps; s++ {
			for _, a := range cb.Step().Allocs {
				bits[a.UE] += float64(a.Alloc.DeliveredBits)
			}
		}
		t2 := now()
		l.tr.add(sec, "cell64", "gnb.NewCell+NewCellBatch "+op.Acronym, t0, t1.Sub(t0))
		l.tr.add(sec, "cell64", "gnb.CellBatch.Step "+op.Acronym, t1, t2.Sub(t1))
		setup += t1.Sub(t0)
		stepping += t2.Sub(t1)
		ueSlots += steps * n
		fast += cb.FastLanes()
		ues += cb.NumUEs()
	}
	l.calibrate()
	m := l.rep.Metrics
	m["gnb.cell_setup_ms"] = float64(setup) / float64(len(ops)) / 1e6
	m["gnb.cellbatch_ns_per_ue_slot"] = float64(stepping) / float64(ueSlots)
	m["channel.batch_fast_lane_frac"] = float64(fast) / float64(ues)
	return nil
}

// qoe times spec decoding, each pack's scenario.Run, and video.Play
// against the same link stepped without the player.
func (l *ledger) qoe() error {
	sec := l.tr.begin(l.root, "qoe", "qoe")
	defer l.tr.end(sec)
	m := l.rep.Metrics
	const specReps = 20
	t0 := now()
	for r := 0; r < specReps; r++ {
		specs, err := loadPacks(l.sc)
		if err != nil {
			return err
		}
		for _, s := range specs {
			if _, err := s.Digest(); err != nil {
				return err
			}
		}
	}
	d := now().Sub(t0)
	l.tr.add(sec, "qoe", "scenario.Pack+Digest", t0, d)
	m["scenario.spec_us"] = float64(d) / float64(specReps*len(qoePacks)) / 1e3

	specs, err := loadPacks(l.sc)
	if err != nil {
		return err
	}
	var mec *scenario.Spec
	for i, s := range specs {
		var ts []float64
		for r := 0; r < 3; r++ {
			t0 := now()
			if _, err := scenario.Run(context.Background(), s, scenario.Options{Seed: l.seed, Workers: fleetWorkers}); err != nil {
				return err
			}
			d := now().Sub(t0)
			l.tr.add(sec, "qoe", "scenario.Run "+s.Name, t0, d)
			ts = append(ts, float64(d)/1e6)
		}
		m["scenario.run_ms."+qoePacks[i]] = median(ts)
		l.calibrate()
		if s.Traffic.App == scenario.AppVideo {
			mec = s
		}
	}
	return l.videoPlay(sec, mec)
}

// videoPlay replays the first EDGE_ON session of every (operator, ABR)
// cell of the video grid: video.Play on a warmed-up session, then the
// same link steps, with the same demand, on a fresh copy without the
// player. Both run videoReps times in alternating order.
func (l *ledger) videoPlay(sec int, s *scenario.Spec) error {
	if s == nil || s.Route.Kind != scenario.RouteStationary {
		return fmt.Errorf("qoe packs lack the stationary video grid the ledger replays")
	}
	ops, err := s.Operators()
	if err != nil {
		return err
	}
	v := s.Video
	ladder := video.Ladder400
	if v.Ladder == "mmwave" {
		ladder = video.LadderMmWave
	}
	secs := func(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }
	const videoReps = 3
	play := make([]time.Duration, videoReps)
	link := make([]time.Duration, videoReps)
	var steps, plays int64
	replayOK := true
	for _, op := range ops {
		for _, abr := range v.ABRs {
			seed := fleet.SplitSeed(l.seed, s.SeedDomain+"/"+op.Acronym+"/"+abr, 0)
			edge := &video.EdgeConfig{
				HitRatio:  v.Edge.HitRatio,
				OriginRTT: secs(v.Edge.OriginRTTMS / 1000),
				EdgeRTT:   secs(v.Edge.EdgeRTTMS / 1000),
				Seed:      fleet.SplitSeed(seed, "edge", 0),
			}
			warmSession := func() (*core.Session, error) {
				sess, err := core.NewSession(op, operators.Stationary(seed))
				if err != nil {
					return nil, err
				}
				return sess, sess.WarmUp()
			}
			// player runs one timed session; every run needs a fresh ABR,
			// which keeps state across decisions.
			player := func() (*video.Result, time.Duration, int, error) {
				var alg video.ABR
				switch abr {
				case "bola":
					alg = video.NewBOLA()
				case "throughput":
					alg = &video.ThroughputABR{}
				case "dynamic":
					alg = video.NewDynamic()
				default:
					return nil, 0, 0, fmt.Errorf("ledger: unknown ABR %q", abr)
				}
				sess, err := warmSession()
				if err != nil {
					return nil, 0, 0, err
				}
				before := sess.Link.Now()
				t0 := now()
				res, err := video.Play(sess.Link, video.SessionConfig{
					Ladder: ladder, ChunkLength: secs(v.ChunkSec), VideoDuration: secs(v.MediaSec), ABR: alg, Edge: edge,
				})
				d := now().Sub(t0)
				l.tr.add(sec, "qoe", "video.Play "+op.Acronym+"/"+abr, t0, d)
				return res, d, int((sess.Link.Now() - before) / sess.Link.SlotDuration()), err
			}
			res, _, n, err := player()
			if err != nil {
				return err
			}
			// The player downloads from the end of each chunk's request
			// round trip until the chunk arrives and idles otherwise, so
			// its chunk log gives the exact demand of every step.
			// A warmed-up session starts at the same simulated time as the
			// player's did.
			bareSess, err := warmSession()
			if err != nil {
				return err
			}
			slot, before := bareSess.Link.SlotDuration(), bareSess.Link.Now()
			dl := make([]bool, n)
			type window struct {
				from, to int
				bits     float64
			}
			var windows []window
			for _, c := range res.Chunks {
				from := int((c.RequestTime-before)/slot + (edge.RTT(c.Index)+slot-1)/slot)
				to := int((c.ArriveTime - before) / slot)
				for k := from; k < to; k++ {
					dl[k] = true
				}
				windows = append(windows, window{from, to, ladder[c.Quality] * 1e6 * v.ChunkSec})
			}
			got := make([]int, n)
			bare := func(sess *core.Session) time.Duration {
				t0 := now()
				for k, on := range dl {
					got[k] = sess.Link.Step(net5g.Demand{DL: on, Share: 1}).DLBits
				}
				return now().Sub(t0)
			}
			// Each chunk must complete on exactly the replayed step it
			// completed on in the player, or the subtraction compares
			// different work.
			bare(bareSess)
			for _, w := range windows {
				sum := 0
				for k := w.from; k < w.to; k++ {
					sum += got[k]
				}
				replayOK = replayOK && w.to > w.from && float64(sum) >= w.bits && float64(sum-got[w.to-1]) < w.bits
			}
			for r := 0; r < videoReps; r++ {
				for i := 0; i < 2; i++ {
					if (i+r)%2 == 0 {
						_, d, _, err := player()
						if err != nil {
							return err
						}
						play[r] += d
						continue
					}
					sess, err := warmSession()
					if err != nil {
						return err
					}
					link[r] += bare(sess)
				}
			}
			steps += int64(n)
			plays++
		}
	}
	l.check("video replay completes every chunk on the player's step", replayOK, "")
	perPlay, self := make([]float64, videoReps), make([]float64, videoReps)
	for r := range play {
		perPlay[r] = float64(play[r]) / float64(plays) / 1e6
		self[r] = float64(play[r]-link[r]) / float64(steps)
	}
	l.rep.Metrics["video.play_ms"] = median(perPlay)
	l.rep.Metrics["video.self_ns_per_step"] = median(self)
	return nil
}
