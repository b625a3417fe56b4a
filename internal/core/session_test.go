package core

import (
	"bytes"
	"io"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

// keepRecords is the oracle's observer: it writes every step's KPI
// records to w and keeps them all.
type keepRecords struct {
	w    xcal.TraceWriter
	recs []xcal.SlotKPI
}

func (k *keepRecords) Observe(r *net5g.StepResult) error {
	n := len(k.recs)
	k.recs = net5g.KPIRecords(*r, k.recs)
	for i := n; i < len(k.recs); i++ {
		if err := k.w.WriteKPI(&k.recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// oracleTracedIperf is the capture path RunIperf replaced: keep every KPI
// record of the run, then emit one DCI frame per 16th DL NR allocation
// record after it.
func oracleTracedIperf(t *testing.T, s *Session, d time.Duration, w xcal.TraceWriter) {
	t.Helper()
	if err := s.WarmUp(); err != nil {
		t.Fatal(err)
	}
	mib, sibs, err := s.Signaling()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMIB(&mib); err != nil {
		t.Fatal(err)
	}
	for i := range sibs {
		if err := w.WriteSIB1(&sibs[i]); err != nil {
			t.Fatal(err)
		}
	}
	keep := &keepRecords{w: w}
	if _, err := iperf.Run(s.Link, iperf.Config{Duration: d, Demand: net5g.Saturate, Observers: []iperf.Observer{keep}}); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range keep.recs {
		r := &keep.recs[i]
		if r.Dir != xcal.DL || r.RAT != xcal.NR || r.TBSBits == 0 {
			continue
		}
		n++
		if n%16 != 0 {
			continue
		}
		format := xcal.DCI10
		if r.MCSTable == 2 {
			format = xcal.DCI11
		}
		dci := xcal.DCI{
			Slot:    r.Slot,
			Format:  format,
			Carrier: r.Carrier,
			MCS:     r.MCS,
			RBs:     r.RBs,
			Rank:    r.Rank,
			NDI:     r.HARQRetx == 0,
		}
		if err := w.WriteDCI(&dci); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunIperfTraceMatchesOracle pins the capture observer: a traced
// RunIperf writes the same capture bytes as the keep-every-record
// oracle, in both trace containers, for a single-carrier and a
// carrier-aggregated operator with an LTE anchor, with and without a
// Series observer riding along.
func TestRunIperfTraceMatchesOracle(t *testing.T) {
	containers := map[string]func(io.Writer, xcal.Meta) (xcal.TraceWriter, error){
		"xcal": func(w io.Writer, m xcal.Meta) (xcal.TraceWriter, error) { return xcal.NewWriter(w, m) },
		"xcol": func(w io.Writer, m xcal.Meta) (xcal.TraceWriter, error) { return xcol.NewWriter(w, m) },
	}
	for format, open := range containers {
		for _, acr := range []string{"V_Sp", "Tmb_US"} {
			t.Run(format+"/"+acr, func(t *testing.T) {
				capture := func(run func(*Session, xcal.TraceWriter)) []byte {
					s := session(t, acr, 9)
					var buf bytes.Buffer
					w, err := open(&buf, s.Meta())
					if err != nil {
						t.Fatal(err)
					}
					run(s, w)
					if err := w.Close(); err != nil {
						t.Fatal(err)
					}
					return buf.Bytes()
				}
				want := capture(func(s *Session, w xcal.TraceWriter) {
					oracleTracedIperf(t, s, time.Second, w)
				})
				for _, series := range []bool{false, true} {
					got := capture(func(s *Session, w xcal.TraceWriter) {
						var obs []iperf.Observer
						if series {
							obs = append(obs, iperf.NewSeries(s.Link, time.Second))
						}
						if _, err := s.RunIperf(time.Second, net5g.Saturate, w, obs...); err != nil {
							t.Fatal(err)
						}
					})
					if !bytes.Equal(got, want) {
						t.Fatalf("RunIperf trace (%d bytes, series %v) differs from the oracle capture (%d bytes)", len(got), series, len(want))
					}
				}
			})
		}
	}
}

// TestCampaignCountsSimulatedSlots pins the slot accounting of campaign
// sessions, which drop their per-slot series: every session adds its
// iperf step count.
func TestCampaignCountsSimulatedSlots(t *testing.T) {
	op, err := operators.ByAcronym("V_Sp")
	if err != nil {
		t.Fatal(err)
	}
	var m fleet.Metrics
	if _, err := RunCampaign(CampaignConfig{
		Operators:           []operators.Operator{op},
		SessionDuration:     time.Second,
		SessionsPerOperator: 2,
		LatencyProbes:       10,
		Seed:                3,
		Metrics:             &m,
	}); err != nil {
		t.Fatal(err)
	}
	steps := int64(time.Second / session(t, "V_Sp", 3).Link.SlotDuration())
	if got := m.SlotsSimulated.Load(); got != 2*steps {
		t.Errorf("SlotsSimulated = %d, want %d", got, 2*steps)
	}
}
