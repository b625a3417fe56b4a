package experiments

import (
	"github.com/midband5g/midband/internal/net5g"
	"github.com/midband5g/midband/internal/operators"
)

// Fig23Row is one carrier-aggregation combination's throughput.
type Fig23Row struct {
	Combo        string
	BandwidthMHz int
	DLMbps       float64
}

// Fig23 reproduces the T-Mobile CA benefit figure: a single n41 100 MHz
// carrier versus the 140 MHz (n41+n41) and 160 MHz (n41+n41+n25) aggregated
// channels.
func Fig23(o Options) ([]Fig23Row, error) {
	op, err := operators.ByAcronym("Tmb_US")
	if err != nil {
		return nil, err
	}
	combos := []struct {
		name     string
		carriers []int // indices into the T-Mobile carrier list
		bw       int
	}{
		{"n41-100", []int{0}, 100},
		{"n41-100+n41-40", []int{0, 1}, 140},
		{"n41-100+n41-40+n25-20", []int{0, 1, 2}, 160},
	}
	var rows []Fig23Row
	for _, combo := range combos {
		sub := op
		sub.Carriers = nil
		for _, idx := range combo.carriers {
			sub.Carriers = append(sub.Carriers, op.Carriers[idx])
		}
		// Same seed for every combo: the PCell channel realization is
		// identical, so the deltas isolate the aggregated carriers.
		res, err := measureAverages(sub, operators.Stationary(o.seed()), o.sessionSeconds(10), net5g.Demand{DL: true})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig23Row{Combo: combo.name, BandwidthMHz: combo.bw, DLMbps: res.DLMbps})
	}
	return rows, nil
}
