package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/video"
	"github.com/midband5g/midband/internal/xcal"
	"github.com/midband5g/midband/internal/xcol"
)

func session(t *testing.T, acr string, seed int64) *Session {
	t.Helper()
	op, err := operators.ByAcronym(acr)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(op, operators.Stationary(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSessionMeta(t *testing.T) {
	s := session(t, "V_It", 1)
	m := s.Meta()
	if m.Operator != "V_It" || m.Country != "Italy" || m.City != "Rome" {
		t.Errorf("meta = %+v", m)
	}
	if m.SlotDuration != 500*time.Microsecond {
		t.Errorf("slot duration = %v", m.SlotDuration)
	}
}

func TestSessionSignaling(t *testing.T) {
	s := session(t, "Tmb_US", 2)
	mib, sibs, err := s.Signaling()
	if err != nil {
		t.Fatal(err)
	}
	if mib.SCSkHz != 30 {
		t.Errorf("MIB SCS = %d", mib.SCSkHz)
	}
	if len(sibs) != 4 {
		t.Fatalf("T-Mobile should broadcast 4 SIB1s, got %d", len(sibs))
	}
	if sibs[0].Band != "n41" || sibs[0].CarrierBandwidthRB != 273 {
		t.Errorf("PCell SIB1 = %+v", sibs[0])
	}
	if !sibs[2].FDD || sibs[2].Band != "n25" {
		t.Errorf("n25 SIB1 = %+v", sibs[2])
	}
	if sibs[0].AbsoluteFrequencyPointA == 0 {
		t.Error("SIB1 missing frequency")
	}
}

func TestWarmUpIdempotent(t *testing.T) {
	s := session(t, "V_Ge", 3)
	if err := s.WarmUp(); err != nil {
		t.Fatal(err)
	}
	before := s.Link.Now()
	if err := s.WarmUp(); err != nil {
		t.Fatal(err)
	}
	if s.Link.Now() != before {
		t.Error("second WarmUp should be a no-op")
	}
}

func TestRunIperfAndLatency(t *testing.T) {
	s := session(t, "T_Ge", 4)
	res, err := s.RunIperf(time.Second, net5g.Saturate, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.DLMbps < 200 {
		t.Errorf("T_Ge DL = %.0f Mbps", res.DLMbps)
	}
	clean, retx, err := s.RunLatency(3000, 0.08)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean) == 0 || len(retx) == 0 {
		t.Fatalf("latency buckets empty: clean=%d retx=%d", len(clean), len(retx))
	}
	if meanDuration(retx) <= meanDuration(clean) {
		t.Error("BLER>0 bucket should be slower")
	}
}

func TestRunCampaignWritesTraces(t *testing.T) {
	dir := t.TempDir()
	ops := []operators.Operator{}
	for _, acr := range []string{"V_Sp", "Vzw_US"} {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	stats, err := RunCampaign(CampaignConfig{
		Operators:       ops,
		SessionDuration: time.Second,
		LatencyProbes:   500,
		TraceDir:        dir,
		Seed:            5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Operators != 2 || len(stats.Sessions) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if !stats.Countries["Spain"] || !stats.Countries["USA"] {
		t.Error("countries missing")
	}
	if stats.Minutes <= 0 || stats.DataTB <= 0 {
		t.Error("dataset volume should be positive")
	}
	if stats.TraceFiles != 2 {
		t.Errorf("trace files = %d", stats.TraceFiles)
	}
	// Each written trace is a readable capture with signaling + KPIs.
	for _, sess := range stats.Sessions {
		s, f, err := xcol.OpenFile(sess.TracePath)
		if err != nil {
			t.Fatalf("opening %s: %v", sess.TracePath, err)
		}
		var kpi, sib int
		for {
			blk, err := s.Next()
			if err != nil {
				break
			}
			kpi += blk.Count
		}
		err = s.AuxFrames(func(ft xcal.FrameType, _ uint64, _ []byte) error {
			if ft == xcal.FrameSIB1 {
				sib++
			}
			return nil
		})
		f.Close()
		if err != nil || len(s.Corrupt()) != 0 {
			t.Errorf("%s: err=%v corrupt=%v", filepath.Base(sess.TracePath), err, s.Corrupt())
		}
		if kpi == 0 || sib == 0 {
			t.Errorf("%s: kpi=%d sib=%d", filepath.Base(sess.TracePath), kpi, sib)
		}
		if sess.DLMbps <= 0 || sess.LatencyClean <= 0 {
			t.Errorf("session %s has zero metrics", sess.Operator)
		}
	}
}

func TestRunCampaignDefaults(t *testing.T) {
	// Default registry (11 operators), tiny sessions, no traces.
	stats, err := RunCampaign(CampaignConfig{
		SessionDuration: 250 * time.Millisecond,
		LatencyProbes:   100,
		Seed:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Operators != 11 {
		t.Errorf("default campaign covers %d operators, want 11", stats.Operators)
	}
	// Table 1 shape: 5 countries, 5 cities.
	if len(stats.Countries) != 5 || len(stats.Cities) != 5 {
		t.Errorf("countries=%d cities=%d, want 5/5", len(stats.Countries), len(stats.Cities))
	}
}

func TestRunVideoWritesEvents(t *testing.T) {
	s := session(t, "V_Sp", 7)
	var buf bytes.Buffer
	w, err := xcal.NewWriter(&buf, s.Meta())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunVideo(video.SessionConfig{
		Ladder:        video.Ladder400,
		ChunkLength:   time.Second,
		VideoDuration: 10 * time.Second,
		ABR:           video.NewBOLA(),
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := xcal.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var requests, arrivals, sibs int
	for {
		ft, err := r.Next()
		if err != nil {
			break
		}
		switch ft {
		case xcal.FrameEvent:
			switch r.Event.Kind {
			case "chunk-request":
				requests++
			case "chunk-arrival":
				arrivals++
			}
		case xcal.FrameSIB1:
			sibs++
		}
	}
	if requests != len(res.Chunks) || arrivals != len(res.Chunks) {
		t.Errorf("events: %d requests / %d arrivals for %d chunks", requests, arrivals, len(res.Chunks))
	}
	if sibs == 0 {
		t.Error("video trace should carry signaling")
	}
}
