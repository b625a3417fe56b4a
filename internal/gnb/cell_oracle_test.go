package gnb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/ue"
)

// This file holds the reference oracle for Cell.Step's contention model:
// the scalar array-of-structs slot path that the structure-of-arrays
// engine replaced, kept verbatim so the lockstep and fuzz tests below can
// replay every slot against it, the way referenceChannel in
// internal/channel/kernel_test.go pins the channel kernel. The oracle
// senses through each UE's own channel (Channel.Step and
// Channel.SetNeighborLoad), never through the cell's channel.Batch, so
// the comparison also covers the batch's fast and fallback lanes. It
// shares only the leaf helpers (TB sizing, decode, HARQ queue, PF
// window) with production. Its decode draws come from its own math/rand
// streams, seeded as NewCell seeds each UE's generator, so the lockstep
// also pins internal/simrand to math/rand's streams.

// ueState is one UE's per-slot scheduling input on the oracle path.
type ueState struct {
	idx    int
	sample channel.Sample
	report ue.Report
	ready  bool
	instSE float64 // estimated instantaneous rate ∝ metric input
}

// contentionOracle wraps a contention cell that is stepped only through
// stepContention. Its ready field shadows Cell.ready: the oracle keeps
// its eligible set as ueState values.
type contentionOracle struct {
	*Cell
	states []ueState
	ready  []ueState
	rngs   []*rand.Rand // per-UE decode streams
}

// deliver is Cell.deliver drawing the decode from the oracle's own
// stream for the UE.
func (c *contentionOracle) deliver(dst *Alloc, slot int64, idx int, job harqJob, sinrDB float64) {
	u := c.ues[idx]
	ack := c.tb.decode(c.rngs[idx].Float64(), &job, sinrDB, &c.olla[idx])
	delivered := 0
	if ack {
		delivered = u.buf.Drain(job.tbs)
	} else if r, ok := c.tb.retry(&job, slot); ok {
		u.harq = append(u.harq, r)
	}
	c.tb.alloc(dst, &job, ack, delivered)
}

// stepContention is the scalar contention slot, as Cell.Step ran it
// before the SoA engine. Scheduling order within a slot: HARQ
// retransmissions first (in UE-index order, each keeping its original RB
// footprint), then fresh transport blocks for the remaining backlogged
// UEs under the configured policy, all within the carrier's NRB budget.
// The returned Allocs slice is owned by the Cell.
func (c *contentionOracle) stepContention() CellSlot {
	slot := c.slot
	c.slot++
	res := CellSlot{Slot: slot, Time: time.Duration(slot) * c.slotDur}

	states := c.states[:0]
	for i, u := range c.ues {
		s := u.ch.Step()
		u.csi.Observe(slot, s.SINRdB)
		u.buf.Arrive()
		rep, ok := u.csi.Current()
		st := ueState{idx: i, sample: s, report: rep,
			ready: ok && rep.CQI > 0 && !s.Outage && u.buf.Backlogged()}
		if st.ready {
			row, err := c.tb.csi.Table.Lookup(rep.CQI)
			if err == nil {
				st.instSE = row.Efficiency * float64(rep.RI)
			}
		}
		states = append(states, st)
	}
	c.states = states

	dlSym := referenceSlotSymbols(&c.cfg.Carrier, slot).dl
	if dlSym == 0 {
		return res
	}

	budget := c.cfg.Carrier.NRB
	res.Allocs = c.allocs[:0]
	sched := c.scheduled
	for i := range sched {
		sched[i] = false
	}

	// HARQ retransmissions preempt fresh data: a pending TB is re-sent as
	// soon as its RTT elapses and its original RB footprint fits the
	// remaining budget. Retransmissions need no fresh CQI (they were
	// sized by an earlier report) but do need a link (no outage).
	for i, u := range c.ues {
		if budget < 1 {
			break
		}
		if states[i].sample.Outage {
			continue
		}
		var job harqJob
		if !popReadyFit(&job, &u.harq, slot, budget) {
			continue
		}
		budget -= job.rbs
		sched[i] = true
		var a Alloc
		c.deliver(&a, slot, i, job, states[i].sample.SINRdB)
		res.Allocs = append(res.Allocs, UEAlloc{
			UE: i, Alloc: a, SINRdB: states[i].sample.SINRdB, CQI: states[i].report.CQI,
		})
	}

	// Fresh grants for the backlogged UEs that did not retransmit.
	ready := c.ready[:0]
	for _, st := range states {
		if st.ready && !sched[st.idx] {
			ready = append(ready, st)
		}
	}
	c.ready = ready
	if budget > 0 && len(ready) > 0 {
		rb := c.rb[:0]
		switch c.cfg.Policy {
		case SchedulerMaxRate:
			// Whole remaining budget to the best instantaneous spectral
			// efficiency (ties break on the lower UE index).
			best := 0
			for i, st := range ready[1:] {
				if st.instSE > ready[best].instSE {
					best = i + 1
				}
			}
			for i := range ready {
				w := 0
				if i == best {
					w = budget
				}
				rb = append(rb, w)
			}
		case SchedulerRoundRobin:
			// Whole-slot time-domain rotation over backlogged UEs: the
			// cursor remembers who is next, so every contender gets the
			// same share of slots regardless of channel quality.
			n := len(c.ues)
			chosen := -1
			for off := 0; off < n && chosen < 0; off++ {
				cand := (c.rr + off) % n
				if states[cand].ready && !sched[cand] {
					chosen = cand
				}
			}
			c.rr = (chosen + 1) % n
			for i := range ready {
				w := 0
				if ready[i].idx == chosen {
					w = budget
				}
				rb = append(rb, w)
			}
		case SchedulerProportionalFair:
			// Frequency-domain PF across the whole ready set: each UE's
			// integer RB share is proportional to its PF metric
			// (instantaneous rate over window-smoothed served rate), with
			// the rounding remainder going to the highest metrics. The
			// served-rate window below is what makes this fair over time.
			// ready is reordered by descending metric so the remainder
			// pass is a prefix walk.
			ss := c.scores[:0]
			total := 0.0
			for _, st := range ready {
				m := st.instSE / c.served[st.idx]
				ss = append(ss, pfScore{st.idx, m})
				total += m
			}
			c.scores = ss
			for i := 1; i < len(ss); i++ {
				for j := i; j > 0 && ss[j].metric > ss[j-1].metric; j-- {
					ss[j], ss[j-1] = ss[j-1], ss[j]
					ready[j], ready[j-1] = ready[j-1], ready[j]
				}
			}
			left := budget
			for _, s := range ss {
				w := 0
				if total > 0 {
					w = int(float64(budget) * s.metric / total)
				}
				rb = append(rb, w)
				left -= w
			}
			// Σ⌊x⌋ > budget − n, so one descending prefix pass places the
			// remainder (at most one extra RB per UE).
			for i := 0; i < len(rb) && left > 0; i++ {
				rb[i]++
				left--
			}
		default: // equal share
			q, r := budget/len(ready), budget%len(ready)
			for i := range ready {
				w := q
				if i < r {
					w++
				}
				rb = append(rb, w)
			}
		}
		c.rb = rb

		for i, st := range ready {
			rbs := rb[i]
			if rbs < 1 {
				continue
			}
			var job harqJob
			if !c.newContentionTB(&job, slot, st.idx, st.report, dlSym, rbs) {
				continue
			}
			var a Alloc
			c.deliver(&a, slot, st.idx, job, st.sample.SINRdB)
			res.Allocs = append(res.Allocs, UEAlloc{
				UE: st.idx, Alloc: a, SINRdB: st.sample.SINRdB, CQI: st.report.CQI,
			})
		}
	}

	c.allocs = res.Allocs
	if len(res.Allocs) == 0 {
		res.Allocs = nil
	}
	c.updatePFWindow(res.Allocs)

	// Load coupling: fold this slot's RB utilization into the EMA and
	// periodically mirror it into each UE's channel as the neighbor
	// activity factor. Real co-UEs thus replace the statistical
	// NeighborLoad: a saturated cell sees saturated neighbors.
	granted := 0
	for _, a := range res.Allocs {
		granted += a.Alloc.RBs
	}
	util := float64(granted) / float64(c.cfg.Carrier.NRB)
	c.loadEMA += (util - c.loadEMA) / loadEMAWindow
	if !c.cfg.DisableLoadCoupling && len(c.ues) > 1 && slot%loadPushPeriod == loadPushPeriod-1 {
		for _, u := range c.ues {
			u.ch.SetNeighborLoad(c.loadEMA)
		}
	}
	return res
}

// lockstepCells builds two identically-configured contention cells: one
// stepped by the production Cell.Step, one by the oracle.
func lockstepCells(t *testing.T, cfg CellConfig) (*Cell, *contentionOracle) {
	t.Helper()
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, len(cfg.UEs))
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(fleet.SplitSeed(cfg.Seed, "gnb/cell/ue", i)))
	}
	return cell, &contentionOracle{Cell: ref, rngs: rngs}
}

// assertSlotEqual compares one slot's outcome bit-for-bit: the alloc
// sequence (grant order included), the SINR samples, and the cell-side
// PF/load state the schedulers feed back on.
func assertSlotEqual(t *testing.T, slot int, got, want CellSlot, cell *Cell, oracle *contentionOracle) {
	t.Helper()
	if got.Slot != want.Slot || got.Time != want.Time {
		t.Fatalf("slot %d: header (%d, %v) vs oracle (%d, %v)", slot, got.Slot, got.Time, want.Slot, want.Time)
	}
	if len(got.Allocs) != len(want.Allocs) {
		t.Fatalf("slot %d: %d allocs vs oracle %d", slot, len(got.Allocs), len(want.Allocs))
	}
	for j := range got.Allocs {
		g, w := got.Allocs[j], want.Allocs[j]
		if math.Float64bits(g.SINRdB) != math.Float64bits(w.SINRdB) {
			t.Fatalf("slot %d alloc %d: SINR bits %x vs oracle %x", slot, j,
				math.Float64bits(g.SINRdB), math.Float64bits(w.SINRdB))
		}
		if g != w {
			t.Fatalf("slot %d alloc %d: %+v vs oracle %+v", slot, j, g, w)
		}
	}
	for i := 0; i < cell.NumUEs(); i++ {
		if math.Float64bits(cell.ServedRate(i)) != math.Float64bits(oracle.ServedRate(i)) {
			t.Fatalf("slot %d UE %d: served bits %x vs oracle %x", slot, i,
				math.Float64bits(cell.ServedRate(i)), math.Float64bits(oracle.ServedRate(i)))
		}
	}
	if math.Float64bits(cell.LoadEMA()) != math.Float64bits(oracle.LoadEMA()) {
		t.Fatalf("slot %d: loadEMA bits %x vs oracle %x", slot,
			math.Float64bits(cell.LoadEMA()), math.Float64bits(oracle.LoadEMA()))
	}
}

var lockstepPolicies = []SchedulerPolicy{
	SchedulerEqualShare, SchedulerProportionalFair, SchedulerMaxRate, SchedulerRoundRobin,
}

// TestCellBatchLockstepScalar is the bit-identity contract of the SoA
// engine: for every scheduler policy, ≥100k Cell.Step slots reproduce the
// scalar oracle's allocations, SINR samples, PF served rates and load
// EMA to the exact bit — full-buffer and finite-traffic mixes alike.
func TestCellBatchLockstepScalar(t *testing.T) {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 90}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	traffics := []struct {
		name    string
		traffic []UETraffic
	}{
		{"full-buffer", nil},
		{"finite-mix", []UETraffic{{OfferedMbps: 20}, {}, {OfferedMbps: 5}, {OfferedMbps: 60}}},
	}
	for _, pol := range lockstepPolicies {
		for _, tr := range traffics {
			t.Run(pol.String()+"/"+tr.name, func(t *testing.T) {
				cfg := contentionConfig(t, pol, ues)
				cfg.Traffic = tr.traffic
				cell, oracle := lockstepCells(t, cfg)
				if cell.FastLanes() != len(ues) {
					t.Fatalf("fast lanes %d, want %d (stationary fault-free UEs)", cell.FastLanes(), len(ues))
				}
				for slot := 0; slot < 100_000; slot++ {
					assertSlotEqual(t, slot, cell.Step(), oracle.stepContention(), cell, oracle)
				}
			})
		}
	}
}

// TestCellBatchLockstepFaults runs the same contract with blackout fault
// injection armed: every UE channel then carries per-slot fault state, so
// all lanes take the scalar fallback inside the channel batch — and the
// outcome must still be bit-identical, outages included.
func TestCellBatchLockstepFaults(t *testing.T) {
	ues := []channel.Point{{X: 0, Y: 45}, {X: 0, Y: 117}, {X: 0, Y: 150}}
	for _, pol := range lockstepPolicies {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := contentionConfig(t, pol, ues)
			cfg.Carrier.Channel.Fault = &fault.Blackout{
				ProbPerSlot: 0.002, DurationSlots: 60, DepthDB: 50, Seed: 41,
			}
			cfg.Traffic = []UETraffic{{OfferedMbps: 30}, {}, {OfferedMbps: 10}}
			cell, oracle := lockstepCells(t, cfg)
			if cell.FastLanes() != 0 {
				t.Fatalf("fast lanes %d, want 0 (blackout channels must fall back)", cell.FastLanes())
			}
			for slot := 0; slot < 100_000; slot++ {
				assertSlotEqual(t, slot, cell.Step(), oracle.stepContention(), cell, oracle)
			}
		})
	}
}

// fuzzCellConfig decodes fuzz inputs into a contention cell: 1–64 UEs on
// a grid, one of the four policies, a per-UE traffic mix (byte 0 is a
// full-buffer UE, b > 0 offers b/4 Mbps; an empty mix is all full-buffer),
// and flag bits for DisableLoadCoupling (1), a -faults style blackout
// plan (2), two interfering neighbor sites so load coupling moves the
// SINR (4), and slow drift (8). The high flag bits scale the blackout;
// without a blackout, bit 16 adds a degradation-episode process whose
// rate grows with the top three bits, fast enough that episodes open and
// close inside the run.
func fuzzCellConfig(t *testing.T, nUEs, policy, flags uint8, traffic []byte, seed int64) CellConfig {
	t.Helper()
	n := 1 + int(nUEs)%64
	ues := make([]channel.Point, n)
	for i := range ues {
		ues[i] = channel.Point{X: 40 + float64(i%8)*60, Y: float64(i/8) * 50}
	}
	cfg := contentionConfig(t, lockstepPolicies[int(policy)%len(lockstepPolicies)], ues)
	cfg.Seed = seed
	cfg.DisableLoadCoupling = flags&1 != 0
	if len(traffic) > 0 {
		cfg.Traffic = make([]UETraffic, n)
		for i := range cfg.Traffic {
			cfg.Traffic[i].OfferedMbps = float64(traffic[i%len(traffic)]) / 4
		}
	}
	if flags&2 != 0 {
		spec := fmt.Sprintf("blackout=%g,blackoutdur=%d,blackoutdb=%d,seed=%d",
			1e-3*float64(1+flags>>4), 10+40*int(flags>>6), 20+int(flags>>4&3)*15, seed)
		sched, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatalf("fault spec %q: %v", spec, err)
		}
		cfg.Carrier.Channel.Fault = sched.Session("cell", 0).Blackout(0)
	}
	if flags&4 != 0 {
		cfg.Carrier.Channel.Deployment.Sites = []channel.Point{{}, {X: 500}, {X: -500}}
	}
	if flags&8 != 0 {
		cfg.Carrier.Channel.SlowSigmaDB = 1.5
		cfg.Carrier.Channel.SlowCorrSeconds = 5
	}
	if flags&2 == 0 && flags&16 != 0 {
		cfg.Carrier.Channel.Episodes = &channel.EpisodeConfig{
			RatePerSec: 2 * float64(1+flags>>5), MeanSeconds: 0.05, MinDepthDB: 3, MaxDepthDB: 12,
		}
	}
	return cfg
}

// TestFuzzEpisodeSeedCycles checks that FuzzCellOracleLockstep's episode
// seed entry really opens and closes episodes inside its 2048 slots. It
// steps the decoded cell beside a twin whose episodes have zero depth:
// the twin draws the same numbers, so a UE's SINR differs from its twin's
// exactly while that UE's episode loss is above zero. Load coupling is
// off in both, so the neighbor load cannot differ; coupling draws no
// random numbers, so the episode timeline stays the seed's.
func TestFuzzEpisodeSeedCycles(t *testing.T) {
	cfg := fuzzCellConfig(t, 7, 1, 0x3c, []byte{0, 40}, 29)
	if cfg.Carrier.Channel.Episodes == nil {
		t.Fatal("the seed decodes to no episode process")
	}
	cfg.DisableLoadCoupling = true
	twinCfg := cfg
	flat := *cfg.Carrier.Channel.Episodes
	flat.MinDepthDB, flat.MaxDepthDB = 0, 0
	twinCfg.Carrier.Channel.Episodes = &flat
	cell, err := NewCell(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewCell(twinCfg)
	if err != nil {
		t.Fatal(err)
	}
	sagging := make([]bool, cell.NumUEs())
	cycles := 0 // episodes whose loss rose above zero and fell back, over all UEs
	for slot := 0; slot < 2048; slot++ {
		cell.Step()
		twin.Step()
		for i := range sagging {
			inEpisode := math.Float64bits(cell.sinr[i]) != math.Float64bits(twin.sinr[i])
			if sagging[i] && !inEpisode {
				cycles++
			}
			sagging[i] = inEpisode
		}
	}
	t.Logf("%d episodes opened and closed", cycles)
	if cycles == 0 {
		t.Fatal("no UE's episode opened and closed within 2048 slots; the seed does not exercise the episode path")
	}
}

// FuzzCellOracleLockstep generalizes the fixed lockstep tests: any decoded
// configuration must step bit-identically through Cell.Step and the
// oracle for 2048 slots (32 load-coupling pushes).
func FuzzCellOracleLockstep(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint8(4), []byte{0, 80, 20}, int64(13))
	f.Add(uint8(31), uint8(0), uint8(5), []byte{}, int64(-7))
	f.Add(uint8(0), uint8(2), uint8(2), []byte{5}, int64(2024))
	f.Add(uint8(12), uint8(3), uint8(0xfe), []byte{0, 0, 255, 1}, int64(41))
	f.Add(uint8(7), uint8(1), uint8(0x3c), []byte{0, 40}, int64(29))           // episodes; see TestFuzzEpisodeSeedCycles
	f.Add(uint8(63), uint8(1), uint8(4), []byte{0, 12, 60, 3, 200}, int64(64)) // the cell64 population under PF, churning
	f.Fuzz(func(t *testing.T, nUEs, policy, flags uint8, traffic []byte, seed int64) {
		cfg := fuzzCellConfig(t, nUEs, policy, flags, traffic, seed)
		cell, oracle := lockstepCells(t, cfg)
		for slot := 0; slot < 2048; slot++ {
			assertSlotEqual(t, slot, cell.Step(), oracle.stepContention(), cell, oracle)
		}
	})
}
