package channel

import (
	"math"
	"sync"

	"github.com/midband5g/midband/internal/phy"
)

// Float32 RSRQ kernel. Traces store float32(RSRQFromSINR(x)); a float32
// keeps 24 bits, so an approximation y of the float64 value decides that
// float32 exactly whenever every value within rsrqSlack of y rounds to the
// same float32. Over x ∈ [rsrqLoDB, rsrqHiDB) y is a cubic Hermite
// interpolant of
//
//	g(x) = −10.79 − 10·log10(1 + 10^(−x/10)),  g′(x) = 1/(1 + 10^(x/10))
//
// on a 1/16 dB grid. With a = ln10/10, g′ is the logistic σ(−a·x), so
// |g⁗| ≤ a³·max|σ‴| = a³/8 and the interpolation error is at most
// h⁴/384·a³/8 = h⁴·a³/3072 = 6.07e-11 dB at h = 1/16. The exact path's
// own float64 rounding is a few 1e-15 dB, so |y − RSRQFromSINR(x)| stays
// more than 16× below rsrqSlack. Round-to-nearest is monotone: if
// float32(y − slack) and float32(y + slack) agree, the exact value, which
// lies between them, rounds to the same float32. Near a float32 rounding
// boundary (about 0.2% of inputs), near the −20 dB clamp, outside the
// grid, and for NaN, ±Inf and outage (−Inf) the kernel takes the exact
// expression, so RSRQdB32 equals float32(RSRQdB()) bit for bit.
// FuzzRSRQdB32 pins the equality.
const (
	rsrqLoDB  = -8.0 // g(−8) ≈ −19.4 dB, clear of the −20 dB clamp
	rsrqHiDB  = 68.0 // higher SINR takes the exact path
	rsrqPerDB = 16   // grid nodes per dB: h = 1/16, exact in binary
	rsrqH     = 1.0 / rsrqPerDB
	rsrqSpan  = (rsrqHiDB - rsrqLoDB) * rsrqPerDB // grid intervals
	rsrqSlack = 1e-9                              // dB; 16× the interpolation error bound
)

// rsrqNode is one grid node: g and g′ at rsrqLoDB + i·rsrqH.
type rsrqNode struct{ g, slope float64 }

// rsrqTable is built on first use rather than at package init, so
// processes that never write a trace never pay for it.
var rsrqTable struct {
	once  sync.Once
	nodes [rsrqSpan + 1]rsrqNode
}

func buildRSRQTable() {
	for i := range rsrqTable.nodes {
		lin := phy.DBToLinear(rsrqLoDB + float64(i)*rsrqH)
		rsrqTable.nodes[i] = rsrqNode{g: -10.79 - 10*math.Log10(1+1/lin), slope: 1 / (1 + lin)}
	}
}

// rsrqHermite returns the interpolant of g at sinrDB, or false outside
// the grid (NaN and ±Inf included).
func rsrqHermite(sinrDB float64) (float64, bool) {
	u := (sinrDB - rsrqLoDB) * rsrqPerDB
	if !(u >= 0 && u < rsrqSpan) {
		return 0, false
	}
	rsrqTable.once.Do(buildRSRQTable)
	i := int(u)
	t := u - float64(i)
	n0, n1 := &rsrqTable.nodes[i], &rsrqTable.nodes[i+1]
	m0, m1 := rsrqH*n0.slope, rsrqH*n1.slope
	d := n1.g - n0.g
	return n0.g + t*(m0+t*((3*d-2*m0-m1)+t*(m0+m1-2*d))), true
}

// rsrq32 returns float32(RSRQFromSINR(sinrDB)) bit for bit.
func rsrq32(sinrDB float64) float32 {
	if y, ok := rsrqHermite(sinrDB); ok && y-rsrqSlack > -20 && y+rsrqSlack < -3 {
		lo, hi := float32(y-rsrqSlack), float32(y+rsrqSlack)
		if math.Float32bits(lo) == math.Float32bits(hi) {
			return lo
		}
	}
	return float32(RSRQFromSINR(sinrDB))
}
