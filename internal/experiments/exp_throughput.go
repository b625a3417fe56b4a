package experiments

import (
	"time"

	"github.com/midband5g/midband/internal/analysis"
	"github.com/midband5g/midband/internal/channel"
	"github.com/midband5g/midband/internal/fleet"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
	"github.com/midband5g/midband/internal/phy"
)

// Fig01Row is one operator's PHY DL throughput bar.
type Fig01Row struct {
	Operator string
	Region   string // "EU" or "US"
	DLMbps   float64
}

// euOrder and usOrder follow the paper's Figure 1 bar order.
var (
	fig1EU = []string{"V_It", "V_Sp", "O_Sp90", "T_Ge", "O_Fr", "O_Sp100"}
	fig1US = []string{"Tmb_US", "Vzw_US", "Att_US"}
)

// Fig01 reproduces the downlink throughput comparison. As the headline
// figure it keeps 10 s sessions even under Quick options (short windows
// are dominated by congestion-episode luck).
func Fig01(o Options) ([]Fig01Row, error) {
	var rows []Fig01Row
	d, reps := 15*time.Second, 10
	if o.Quick {
		d, reps = 8*time.Second, 2
	}
	for i, acr := range fig1EU {
		mbps, err := measureAvgDL(acr, d, reps, o.seed()+int64(i))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig01Row{Operator: acr, Region: "EU", DLMbps: mbps})
	}
	for i, acr := range fig1US {
		mbps, err := measureAvgDL(acr, d, reps, o.seed()+100+int64(i))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig01Row{Operator: acr, Region: "US", DLMbps: mbps})
	}
	return rows, nil
}

// SpainCarriers are the §4.1 case-study channels.
var SpainCarriers = []string{"V_Sp", "O_Sp90", "O_Sp100"}

// Fig02Row is a good-channel (CQI ≥ 12) DL throughput bar.
type Fig02Row struct {
	Operator     string
	BandwidthMHz int
	DLMbps       float64
}

// Fig02 reproduces the Spain CQI≥12 comparison: the 100 MHz channel loses
// to both 90 MHz channels.
func Fig02(o Options) ([]Fig02Row, error) {
	var rows []Fig02Row
	for i, acr := range SpainCarriers {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		// This headline comparison needs stable statistics across
		// congestion episodes.
		d := 30 * time.Second
		if o.Quick {
			d = 10 * time.Second
		}
		res, err := measure(acr, d, net5g.Demand{DL: true}, o.seed()+int64(i)*11)
		if err != nil {
			return nil, err
		}
		good := res.FilterByCQI(func(c int) bool { return c >= 12 })
		rows = append(rows, Fig02Row{
			Operator:     acr,
			BandwidthMHz: op.PCell().BandwidthMHz,
			DLMbps:       res.MbpsOf(good),
		})
	}
	return rows, nil
}

// Fig03Series is one carrier's RE-allocation CDF.
type Fig03Series struct {
	Operator string
	CDF      analysis.CDF
}

// Fig03 reproduces the resource-element allocation CDFs: the 100 MHz
// channel allocates *more* REs, ruling resource allocation out as the
// throughput culprit.
func Fig03(o Options) ([]Fig03Series, error) {
	var out []Fig03Series
	for i, acr := range SpainCarriers {
		res, err := measure(acr, o.sessionSeconds(8), net5g.Demand{DL: true}, o.seed()+int64(i)*13)
		if err != nil {
			return nil, err
		}
		var res2 []float64
		for j, re := range res.REs {
			if res.RBs[j] > 0 {
				res2 = append(res2, re)
			}
		}
		out = append(out, Fig03Series{Operator: acr, CDF: analysis.NewCDF(res2)})
	}
	return out, nil
}

// Fig04Row is one operator's RB-allocation summary.
type Fig04Row struct {
	Operator     string
	BandwidthMHz int
	NRB          int
	Alloc        analysis.Summary
}

// Fig04 reproduces the maximum-RB figure: every operator allocates close to
// its transmission bandwidth configuration under full-buffer load.
func Fig04(o Options) ([]Fig04Row, error) {
	order := []string{"Att_US", "Vzw_US", "S_Fr", "V_It", "V_Ge", "O_Sp90", "V_Sp", "O_Fr", "T_Ge", "Tmb_US", "O_Sp100"}
	var rows []Fig04Row
	for i, acr := range order {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		res, err := measure(acr, o.sessionSeconds(5), net5g.Demand{DL: true}, o.seed()+int64(i)*17)
		if err != nil {
			return nil, err
		}
		var rbs []float64
		for _, rb := range res.RBs {
			if rb > 0 {
				rbs = append(rbs, rb)
			}
		}
		nrb, err := op.PCell().NRB()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig04Row{
			Operator:     acr,
			BandwidthMHz: op.PCell().BandwidthMHz,
			NRB:          nrb,
			Alloc:        analysis.Summarize(rbs),
		})
	}
	return rows, nil
}

// Fig05Row is a modulation-order utilization breakdown.
type Fig05Row struct {
	Operator string
	Shares   map[phy.Modulation]float64
}

// Fig05 reproduces the modulation-scheme utilization shares for Spain:
// 64QAM dominates everywhere; 256QAM appears only on the 256QAM-table
// carriers and only a few percent of the time.
func Fig05(o Options) ([]Fig05Row, error) {
	reps := 4
	if o.Quick {
		reps = 2
	}
	var rows []Fig05Row
	for i, acr := range SpainCarriers {
		var mods []phy.Modulation
		for r := 0; r < reps; r++ {
			// Pool slots across independent sessions, as the paper's
			// multi-day shares do.
			res, err := measure(acr, o.sessionSeconds(15), net5g.Demand{DL: true},
				o.seed()+int64(i)*19+int64(r)*7919)
			if err != nil {
				return nil, err
			}
			for j, m := range res.ModOrder {
				if res.RBs[j] > 0 {
					mods = append(mods, phy.Modulation(m))
				}
			}
		}
		rows = append(rows, Fig05Row{Operator: acr, Shares: analysis.Shares(mods)})
	}
	return rows, nil
}

// Fig06Row is a MIMO-layer utilization breakdown.
type Fig06Row struct {
	Operator string
	Shares   map[int]float64
}

// Fig06 reproduces the MIMO-layer utilization shares for Spain: the 90 MHz
// carriers run 4 layers ~85% of the time; the 100 MHz carrier mostly 3.
func Fig06(o Options) ([]Fig06Row, error) {
	reps := 4
	if o.Quick {
		reps = 2
	}
	var rows []Fig06Row
	for i, acr := range SpainCarriers {
		var ranks []int
		for rep := 0; rep < reps; rep++ {
			res, err := measure(acr, o.sessionSeconds(15), net5g.Demand{DL: true},
				o.seed()+int64(i)*23+int64(rep)*7919)
			if err != nil {
				return nil, err
			}
			for j, r := range res.Rank {
				if res.RBs[j] > 0 {
					ranks = append(ranks, int(r))
				}
			}
		}
		rows = append(rows, Fig06Row{Operator: acr, Shares: analysis.Shares(ranks)})
	}
	return rows, nil
}

// Fig07Point is one position sample along the walking route.
type Fig07Point struct {
	PosM   float64
	RSRQdB float64
}

// Fig07Series is one operator's RSRQ-vs-position trace.
type Fig07Series struct {
	Operator string
	Sites    int
	Points   []Fig07Point
	MeanRSRQ float64
}

// Fig07 reproduces the RSRQ coverage maps of Figs. 7/22: the UE walks the
// full route past both deployments' sites and reports RSRQ per position.
// Vodafone's three-site layout keeps RSRQ high along the whole route;
// Orange's two sparse sites leave weak stretches between and beyond them.
func Fig07(o Options) ([]Fig07Series, error) {
	var out []Fig07Series
	for _, acr := range []string{"V_Sp", "O_Sp100"} {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		cc, err := op.CarrierConfig(0, operators.Stationary(fleet.SplitSeed(o.seed(), "fig07/"+acr, 0)))
		if err != nil {
			return nil, err
		}
		pc := op.PCell()
		// The common route spans past both deployments: 900 m parallel to
		// the site rows at the operator's measurement offset.
		const routeLen = 900.0
		const stepM = 20.0
		series := Fig07Series{Operator: acr, Sites: pc.Sites}
		total, n := 0.0, 0.0
		for pos := 0.0; pos <= routeLen; pos += stepM {
			chCfg := cc.Channel
			chCfg.Route = channel.Stationary(channel.Point{X: pos, Y: pc.UEDistanceM})
			// One independent channel per route position: the domain
			// carries the operator, the index the position, so no
			// (operator, position) pair can collide the way the old
			// i*29+pos arithmetic could.
			chCfg.Seed = fleet.SplitSeed(o.seed(), "fig07/"+acr, int(pos))
			ch, err := channel.New(chCfg)
			if err != nil {
				return nil, err
			}
			// Average a short burst of samples at this spot.
			sum := 0.0
			const burst = 400
			for k := 0; k < burst; k++ {
				s := ch.Step()
				sum += s.RSRQdB()
			}
			rsrq := sum / burst
			series.Points = append(series.Points, Fig07Point{PosM: pos, RSRQdB: rsrq})
			total += rsrq
			n++
		}
		series.MeanRSRQ = total / n
		out = append(out, series)
	}
	return out, nil
}

// Fig08Row is the spider-plot factor summary for one carrier.
type Fig08Row struct {
	Operator      string
	DLMbps        float64
	BandwidthMHz  int
	MeanREs       float64
	MeanRank      float64
	Mod256Share   float64
	MaxModulation phy.Modulation
}

// Fig08 reproduces the factor-interplay summary behind the spider plot.
func Fig08(o Options) ([]Fig08Row, error) {
	var rows []Fig08Row
	for i, acr := range SpainCarriers {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		res, err := measure(acr, o.sessionSeconds(8), net5g.Demand{DL: true}, o.seed()+int64(i)*31)
		if err != nil {
			return nil, err
		}
		var re, rank, m256, n float64
		for j := range res.RBs {
			if res.RBs[j] == 0 {
				continue
			}
			re += res.REs[j]
			rank += res.Rank[j]
			m256 += res.Mod256[j]
			n++
		}
		rows = append(rows, Fig08Row{
			Operator:      acr,
			DLMbps:        res.DLMbps,
			BandwidthMHz:  op.PCell().BandwidthMHz,
			MeanREs:       re / n,
			MeanRank:      rank / n,
			Mod256Share:   m256 / n,
			MaxModulation: op.PCell().MCSTable.MaxModulation(),
		})
	}
	return rows, nil
}
