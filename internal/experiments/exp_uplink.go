package experiments

import (
	"time"

	"github.com/midband5g/midband/internal/iperf"
	"github.com/midband5g/midband/internal/lte"
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// Fig09Row is one European operator's NR UL throughput under good channel
// conditions.
type Fig09Row struct {
	Operator     string
	BandwidthMHz int
	ULMbps       float64
}

// fig9Order follows the paper's bandwidth-sorted bar order.
var fig9Order = []string{"V_It", "S_Fr", "V_Ge", "T_Ge", "O_Fr", "V_Sp", "O_Sp90", "O_Sp100"}

// Fig09 reproduces the European PHY UL throughput figure (CQI ≥ 12): all
// well below 120 Mbps and uncorrelated with channel bandwidth.
func Fig09(o Options) ([]Fig09Row, error) {
	var rows []Fig09Row
	for i, acr := range fig9Order {
		op, err := operators.ByAcronym(acr)
		if err != nil {
			return nil, err
		}
		// CQI-conditioned UL needs enough qualifying slots.
		d := 30 * time.Second
		if o.Quick {
			d = 10 * time.Second
		}
		res, err := ulOnlyNR(acr, d, o.seed()+int64(i)*37, 0)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig09Row{
			Operator:     acr,
			BandwidthMHz: op.PCell().BandwidthMHz,
			ULMbps:       ulMbpsWithCQI(res, func(c int) bool { return c >= 12 }),
		})
	}
	return rows, nil
}

// ulMbpsWithCQI averages the UL goodput over slots whose CQI matches.
func ulMbpsWithCQI(res *iperf.Series, keep func(int) bool) float64 {
	var bits float64
	var n int
	for i, b := range res.ULBitsPerSlot {
		if keep(int(res.CQI[i])) {
			bits += b
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return bits / (float64(n) * res.SlotDuration.Seconds()) / 1e6
}

// Fig10Row is one US channel's UL throughput under good and poor channel
// conditions.
type Fig10Row struct {
	Channel    string // "40", "60", "100" (MHz) or "LTE_US"
	Operator   string
	GoodULMbps float64 // CQI ≥ 12
	PoorULMbps float64 // CQI < 10
}

// Fig10 reproduces the US PHY UL figure, including the LTE anchor box that
// explains why T-Mobile prefers the 4G leg for uplink.
func Fig10(o Options) ([]Fig10Row, error) {
	cases := []struct {
		channel, acr string
	}{
		{"40", "Att_US"}, {"60", "Vzw_US"}, {"100", "Tmb_US"},
	}
	var rows []Fig10Row
	d := 30 * time.Second // conditioning needs samples; see Fig09
	if o.Quick {
		d = 10 * time.Second
	}
	for i, c := range cases {
		res, err := ulOnlyNR(c.acr, d, o.seed()+int64(i)*41, 0)
		if err != nil {
			return nil, err
		}
		// Good stationary spots rarely report CQI < 10; like the paper's
		// campaign, the poor-channel box comes from measurements at a
		// degraded location (cell edge).
		resPoor, err := ulOnlyNR(c.acr, d, o.seed()+int64(i)*41+7, -13)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig10Row{
			Channel:    c.channel,
			Operator:   c.acr,
			GoodULMbps: ulMbpsWithCQI(res, func(cqi int) bool { return cqi >= 12 }),
			PoorULMbps: ulMbpsWithCQI(resPoor, func(cqi int) bool { return cqi > 0 && cqi < 10 }),
		})
	}
	// LTE_US: T-Mobile's anchor measured with the prefer-LTE policy it
	// actually uses. Good/poor conditioning uses the anchor's own CQI,
	// which the UL record stream carries via the LTE leg.
	link, err := newLink("Tmb_US", operators.Stationary(o.seed()+500), func(c *net5g.LinkConfig) { c.ULPolicy = lte.ULPreferLTE })
	if err != nil {
		return nil, err
	}
	// Measure good/poor LTE UL by degrading the anchor mid-run is not
	// meaningful in a stationary scenario; report the overall mean in the
	// good bucket and a degraded-share estimate in the poor bucket by
	// re-running with a worse anchor position.
	res, err := warmRun(link, d)
	if err != nil {
		return nil, err
	}
	good := res.LTEULMbps

	linkPoor, err := newLink("Tmb_US", operators.Stationary(o.seed()+501), func(c *net5g.LinkConfig) {
		c.ULPolicy = lte.ULPreferLTE
		c.LTEAnchor.Channel.SINRBiasDB -= 14 // cell-edge anchor
	})
	if err != nil {
		return nil, err
	}
	resPoor, err := warmRun(linkPoor, d)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Fig10Row{
		Channel:    "LTE_US",
		Operator:   "Tmb_US",
		GoodULMbps: good,
		PoorULMbps: resPoor.LTEULMbps,
	})
	return rows, nil
}
