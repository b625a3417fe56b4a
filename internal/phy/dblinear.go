package phy

import (
	"math"
	"runtime"
)

// DBToLinear returns 10^(x/10) (dB to linear, dBm to mW) bit for bit as
// math.Pow(10, x/10) does. It is Go's portable math.pow (math/pow.go, BSD
// licence) with the base fixed at 10 and what pow derives from the base
// hoisted: math.Log(10) once (math.Ln10 may differ in the last bit), the
// squarings of Frexp(10) tabled and multiplied in pow's order, and the
// final Ldexp a multiply by an exact power of two. pow's special cases
// (exponent ±0, 1, ±0.5, NaN, ±Inf), |x/10| > maxFastExp10 and s390x
// (assembly math.Pow) take math.Pow. FuzzDBToLinear pins the equality.
//
//detlint:zeroalloc
func DBToLinear(x float64) float64 {
	y := x / 10
	a := math.Abs(y)
	if runtime.GOARCH == "s390x" || !(a <= maxFastExp10) || a == 0.5 || y == 0 || y == 1 { //detlint:allow floatcmp math.pow's special cases are exact exponent values
		return math.Pow(10, y)
	}
	yi, yf := math.Modf(a)
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	for k, i := 0, int64(yi); i != 0; k, i = k+1, i>>1 {
		if i&1 == 1 {
			a1 *= pow10Frac[k]
			ae += pow10Exp[k]
		}
	}
	if y < 0 {
		a1, ae = 1/a1, -ae
	}
	return a1 * math.Float64frombits(uint64(ae+1023)<<52)
}

// maxFastExp10 bounds |x/10| on DBToLinear's fast path: the integer part
// n ≤ 301 has at most eight bits set, so a1 ∈ [10^-0.5·2^-8, 10^0.5·2^8]
// and |ae| < 300·log2(10) + 10 < 1010. 2^ae and the result (10^±300) are
// normal, so the multiply is exact, as Ldexp is.
const maxFastExp10 = 300

var (
	ln10 = math.Log(10)
	// pow10Frac[k]·2^pow10Exp[k] is 10^(2^k), squared and renormalized
	// to a mantissa in [0.5, 1) exactly as pow's loop does.
	pow10Frac [9]float64
	pow10Exp  [9]int
)

func init() {
	x1, xe := math.Frexp(10)
	for k := range pow10Frac {
		pow10Frac[k], pow10Exp[k] = x1, xe
		x1, xe = x1*x1, xe<<1
		if x1 < .5 {
			x1, xe = x1+x1, xe-1
		}
	}
}
