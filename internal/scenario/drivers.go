package scenario

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/core"
	"github.com/midband5g/midband/internal/fault"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/video"
)

// appOutcome is what one app-workload session job produces. Which
// fields are set depends on the app.
type appOutcome struct {
	// Web: completed pages and their load times in ms.
	pages int
	loads []float64
	// VoIP/gaming: per-probe user-plane latency in ms (with HARQ
	// retransmissions, like the §4.3 distributions).
	lat []float64
	// Throughput KPIs.
	dl, ul, nrUL, lteUL float64
}

// latencyBLER is the first-transmission error rate latency probes
// assume, matching the legacy campaign's §4.3 sampling.
const latencyBLER = 0.08

func msFloat(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runApp executes a web/voip/gaming/uplink scenario: one fleet job per
// (operator, session), aggregated per operator in band-plan order.
func runApp(ctx context.Context, s *Spec, opts Options, res *Result) error {
	ops, err := s.Operators()
	if err != nil {
		return err
	}
	fan, err := s.fanOut(opts)
	if err != nil {
		return err
	}
	count := s.Sessions.Count
	d := s.Duration()

	jobs := make([]core.SessionJob[appOutcome], 0, len(ops)*count)
	for _, op := range ops {
		for k := 0; k < count; k++ {
			op, k := op, k
			key := s.jobKey(op.Acronym, k)
			jobs = append(jobs, core.SessionJob[appOutcome]{
				Key:      key,
				Operator: op.Acronym,
				Session:  k,
				Run: func(fs *fault.Session) (appOutcome, error) {
					if err := maybeAbort(fs); err != nil {
						return appOutcome{}, err
					}
					seed := s.sessionSeed(opts.Seed, op.Acronym, k)
					sess, err := core.NewSessionWithFaults(op, s.route(seed), fs)
					if err != nil {
						return appOutcome{}, fmt.Errorf("scenario: %s: %w", key, err)
					}
					return runAppSession(sess, s, d, opts)
				},
			})
		}
	}

	ran, err := core.RunSessions(ctx, jobs, fan)
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	res.Failures, res.BackoffSim = ran.Failures, ran.BackoffSim

	// Deterministic aggregation: operators in band-plan order, sessions
	// in index order, so workers=1 and workers=N accumulate identically.
	for i, op := range ops {
		base := i * count
		rep := AppReport{Operator: op.Acronym}
		var loads, lat []float64
		var pages float64
		for k := 0; k < count; k++ {
			r := &ran.Results[base+k]
			if r.Err != nil {
				continue
			}
			o := r.Value
			rep.Sessions++
			pages += float64(o.pages)
			loads = append(loads, o.loads...)
			lat = append(lat, o.lat...)
			rep.DLMbps += o.dl
			rep.ULMbps += o.ul
			rep.NRULMbps += o.nrUL
			rep.LTEULMbps += o.lteUL
		}
		if rep.Sessions > 0 {
			n := float64(rep.Sessions)
			rep.Pages = pages / n
			rep.DLMbps /= n
			rep.ULMbps /= n
			rep.NRULMbps /= n
			rep.LTEULMbps /= n
		}
		if len(loads) > 0 {
			rep.PageLoadMeanMs = analysis.Mean(loads)
			rep.PageLoadP95Ms = analysis.Percentile(loads, 95)
		}
		if len(lat) > 0 {
			rep.LatencyMeanMs = analysis.Mean(lat)
			rep.LatencyP95Ms = analysis.Percentile(lat, 95)
			switch s.Traffic.App {
			case AppVoIP:
				rep.MOS = emodelMOS(rep.LatencyMeanMs)
			case AppGaming:
				late := 0
				for _, v := range lat {
					if v > s.Traffic.LatencyBudgetMS {
						late++
					}
				}
				rep.LateFrac = float64(late) / float64(len(lat))
			}
		}
		res.Reports = append(res.Reports, rep)
	}
	return nil
}

// runAppSession dispatches one warmed-up session to the app's driver.
func runAppSession(sess *core.Session, s *Spec, d time.Duration, opts Options) (appOutcome, error) {
	if err := sess.WarmUp(); err != nil {
		return appOutcome{}, err
	}
	switch s.Traffic.App {
	case AppWeb:
		return runWebSession(sess, s, d, opts.Metrics)
	case AppVoIP:
		return runVoIPSession(sess, s)
	case AppGaming:
		return runGamingSession(sess, s, d)
	case AppUplink:
		return runUplinkSession(sess, d)
	}
	return appOutcome{}, fmt.Errorf("scenario: %s: no driver for app %q", s.Name, s.Traffic.App)
}

// runWebSession models web browsing as sequential page fetches with
// think time: each page is Traffic.PageKB of DL payload pulled at full
// share, followed by Traffic.ThinkTimeMS of idle link time, repeated
// until the session budget runs out. Pages cut off by the deadline are
// discarded (a partial load has no load time).
func runWebSession(sess *core.Session, s *Spec, d time.Duration, m *fleet.Metrics) (appOutcome, error) {
	link := sess.Link
	slot := link.SlotDuration()
	pageBits := s.Traffic.PageKB * 8000 // 1 KB = 1000 bytes
	thinkSlots := int(secDuration(s.Traffic.ThinkTimeMS/1000) / slot)
	deadline := link.Now() + d

	var out appOutcome
	steps := 0
	for link.Now() < deadline {
		start := link.Now()
		got := 0.0
		for got < pageBits && link.Now() < deadline {
			r := link.Step(net5g.Demand{DL: true, Share: 1})
			got += float64(r.DLBits)
			steps++
		}
		if got < pageBits {
			break
		}
		out.pages++
		out.loads = append(out.loads, msFloat(link.Now()-start))
		for i := 0; i < thinkSlots && link.Now() < deadline; i++ {
			link.Step(net5g.Demand{})
			steps++
		}
	}
	if m != nil {
		m.SlotsSimulated.Add(int64(steps))
	}
	return out, nil
}

// runVoIPSession samples ProbeCount user-plane latency probes from the
// operator's §4.3 profile, with retransmissions — the distribution the
// E-model scores. A VoIP flow is far below link capacity and the probes
// come from their own seeded latency model, so the call never steps the
// link.
func runVoIPSession(sess *core.Session, s *Spec) (appOutcome, error) {
	_, retx, err := sess.RunLatency(s.Traffic.ProbeCount, latencyBLER)
	if err != nil {
		return appOutcome{}, err
	}
	var out appOutcome
	for _, v := range retx {
		out.lat = append(out.lat, msFloat(v))
	}
	return out, nil
}

// runGamingSession measures the two things cloud gaming cares about:
// whether latency probes meet the frame budget, and how much DL goodput
// headroom the stream has.
func runGamingSession(sess *core.Session, s *Spec, d time.Duration) (appOutcome, error) {
	res, err := sess.RunIperf(d, net5g.Demand{DL: true, Share: 1}, nil)
	if err != nil {
		return appOutcome{}, err
	}
	_, retx, err := sess.RunLatency(s.Traffic.ProbeCount, latencyBLER)
	if err != nil {
		return appOutcome{}, err
	}
	out := appOutcome{dl: res.DLMbps}
	for _, v := range retx {
		out.lat = append(out.lat, msFloat(v))
	}
	return out, nil
}

// runUplinkSession saturates the uplink and keeps the NSA NR-vs-LTE leg
// split — the 4G-vs-5G comparison material.
func runUplinkSession(sess *core.Session, d time.Duration) (appOutcome, error) {
	res, err := sess.RunIperf(d, net5g.Demand{UL: true, Share: 1}, nil)
	if err != nil {
		return appOutcome{}, err
	}
	return appOutcome{ul: res.ULMbps, nrUL: res.NRULMbps, lteUL: res.LTEULMbps}, nil
}

// emodelMOS scores a one-way user-plane latency (ms) with the ITU-T
// G.107 E-model: mouth-to-ear delay adds ~25 ms of codec and playout
// budget on top of the network, the delay impairment Id is the
// piecewise-linear G.107 fit, and R maps to MOS through the standard
// cubic. Clamped to [1, 5].
func emodelMOS(oneWayMs float64) float64 {
	d := oneWayMs + 25
	id := 0.024 * d
	if d > 177.3 {
		id += 0.11 * (d - 177.3)
	}
	r := 93.2 - id
	mos := 1 + 0.035*r + 7e-6*r*(r-60)*(100-r)
	if mos < 1 {
		mos = 1
	}
	if mos > 5 {
		mos = 5
	}
	return mos
}

// videoOutcome is what one video grid session job produces.
type videoOutcome struct {
	norm   float64 // mean normalized bitrate
	stall  float64 // stall percentage
	qoe    float64 // norm − stall/100
	hitPct float64 // observed edge-cache hit percentage
}

// newABR builds a fresh ABR instance. Per-session construction matters:
// DynamicABR carries hysteresis state across decisions, so sharing one
// across sessions would leak state between jobs.
func newABR(name string) (video.ABR, error) {
	switch name {
	case "bola":
		return video.NewBOLA(), nil
	case "throughput":
		return &video.ThroughputABR{}, nil
	case "dynamic":
		return video.NewDynamic(), nil
	}
	return nil, fmt.Errorf("scenario: unknown ABR %q", name)
}

// runVideoGrid executes the MEC grid: operators × ABRs × {EDGE_ON,
// EDGE_OFF} × sessions. Both edge arms of a (operator, ABR, session)
// triple derive the same simulation seed — identical channel
// realization and hit-pattern stream — and differ only in the cache hit
// ratio (EDGE_OFF serves every chunk at the origin RTT), so per-session
// QoE differences feed a paired comparison.
func runVideoGrid(ctx context.Context, s *Spec, opts Options, res *Result) error {
	ops, err := s.Operators()
	if err != nil {
		return err
	}
	fan, err := s.fanOut(opts)
	if err != nil {
		return err
	}
	v := s.Video
	count := s.Sessions.Count
	ladder := video.Ladder400
	if v.Ladder == "mmwave" {
		ladder = video.LadderMmWave
	}
	edges := []string{EdgeOn, EdgeOff}

	jobs := make([]core.SessionJob[videoOutcome], 0, len(ops)*len(v.ABRs)*len(edges)*count)
	for _, op := range ops {
		for _, abr := range v.ABRs {
			for _, edge := range edges {
				for k := 0; k < count; k++ {
					op, abr, edge, k := op, abr, edge, k
					key := fmt.Sprintf("%s/%s/%s/%s/%d", s.Name, op.Acronym, abr, edge, k)
					jobs = append(jobs, core.SessionJob[videoOutcome]{
						Key:      key,
						Operator: op.Acronym,
						Session:  k,
						Run: func(fs *fault.Session) (videoOutcome, error) {
							if err := maybeAbort(fs); err != nil {
								return videoOutcome{}, err
							}
							// The seed domain deliberately excludes the edge
							// condition: that is what pairs the arms.
							seed := fleet.SplitSeed(opts.Seed, s.SeedDomain+"/"+op.Acronym+"/"+abr, k)
							sess, err := core.NewSessionWithFaults(op, s.route(seed), fs)
							if err != nil {
								return videoOutcome{}, fmt.Errorf("scenario: %s: %w", key, err)
							}
							ec := &video.EdgeConfig{
								HitRatio:  v.Edge.HitRatio,
								OriginRTT: secDuration(v.Edge.OriginRTTMS / 1000),
								EdgeRTT:   secDuration(v.Edge.EdgeRTTMS / 1000),
								Seed:      fleet.SplitSeed(seed, "edge", 0),
							}
							if edge == EdgeOff {
								ec.HitRatio = 0 // every chunk at the origin RTT
							}
							abrImpl, err := newABR(abr)
							if err != nil {
								return videoOutcome{}, err
							}
							r, err := sess.RunVideo(video.SessionConfig{
								Ladder:        ladder,
								ChunkLength:   secDuration(v.ChunkSec),
								VideoDuration: secDuration(v.MediaSec),
								ABR:           abrImpl,
								Edge:          ec,
							}, nil)
							if err != nil {
								return videoOutcome{}, fmt.Errorf("scenario: %s: %w", key, err)
							}
							if opts.Metrics != nil {
								opts.Metrics.SlotsSimulated.Add(int64(sess.Link.Now() / sess.Link.SlotDuration()))
							}
							out := videoOutcome{norm: r.AvgNormBitrate, stall: r.StallPct()}
							// QoE folds quality and smoothness into one score:
							// normalized bitrate minus the stall fraction.
							out.qoe = out.norm - out.stall/100
							if n := len(r.Chunks); n > 0 {
								hits := 0
								for _, c := range r.Chunks {
									if c.EdgeHit {
										hits++
									}
								}
								out.hitPct = 100 * float64(hits) / float64(n)
							}
							return out, nil
						},
					})
				}
			}
		}
	}

	ran, err := core.RunSessions(ctx, jobs, fan)
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	res.Failures, res.BackoffSim = ran.Failures, ran.BackoffSim

	vres := &VideoResult{Ladder: v.Ladder, ChunkSec: v.ChunkSec, HitRatio: v.Edge.HitRatio}
	idx := 0
	for _, op := range ops {
		for _, abr := range v.ABRs {
			var arms [2]VideoCell
			for e, edge := range edges {
				cell := VideoCell{Operator: op.Acronym, ABR: abr, Edge: edge}
				for k := 0; k < count; k++ {
					r := &ran.Results[idx]
					idx++
					if r.Err != nil {
						cell.QoEs = append(cell.QoEs, math.NaN())
						continue
					}
					o := r.Value
					cell.Sessions++
					cell.NormBitrate += o.norm
					cell.StallPct += o.stall
					cell.QoE += o.qoe
					cell.EdgeHitPct += o.hitPct
					cell.QoEs = append(cell.QoEs, o.qoe)
				}
				if cell.Sessions > 0 {
					n := float64(cell.Sessions)
					cell.NormBitrate /= n
					cell.StallPct /= n
					cell.QoE /= n
					cell.EdgeHitPct /= n
				}
				arms[e] = cell
				vres.Cells = append(vres.Cells, cell)
			}
			// Pair only sessions where both arms completed: a fault that
			// killed one arm leaves its partner unmatched.
			var on, off []float64
			for k := 0; k < count; k++ {
				a, b := arms[0].QoEs[k], arms[1].QoEs[k]
				if !math.IsNaN(a) && !math.IsNaN(b) {
					on = append(on, a)
					off = append(off, b)
				}
			}
			if len(on) > 0 {
				st, err := analysis.PairedStats(on, off)
				if err != nil {
					return fmt.Errorf("scenario: %s: pairing %s/%s: %w", s.Name, op.Acronym, abr, err)
				}
				vres.Pairs = append(vres.Pairs, VideoPair{
					Operator: op.Acronym,
					ABR:      abr,
					QoEOn:    analysis.Mean(on),
					QoEOff:   analysis.Mean(off),
					Stats:    st,
				})
			}
		}
	}
	res.Video = vres
	return nil
}
