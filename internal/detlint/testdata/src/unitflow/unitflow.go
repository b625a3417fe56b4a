// Package unitflow is a unitflow fixture: units derive from name
// suffixes and //detlint:unit directives; log/linear mixing, unit
// mismatches, and double conversions are flagged, while the dBm±dB and
// dBm−dBm link-budget idioms are not.
package unitflow

import (
	"math"

	"sim/internal/phy"
)

// Sample mirrors the channel KPI struct: units live in field names.
type Sample struct {
	SINRdB  float64
	RSRPdBm float64
}

// BadAdd mixes a log-domain level with linear power.
func BadAdd(rsrpDBm, noiseMW float64) float64 {
	return rsrpDBm + noiseMW // want "unitflow: \+ mixes dBm and mW operands"
}

// BadSum adds two absolute powers in the log domain.
func BadSum(aDBm, bDBm float64) float64 {
	return aDBm + bDBm // want "unitflow: adding two absolute powers"
}

// BadFreq adds across frequency scales.
func BadFreq(spanMHz, scskHz float64) float64 {
	return spanMHz + scskHz // want "unitflow: frequency-scale mismatch"
}

// BadCompare compares an absolute level against a relative offset.
func BadCompare(sinrDB, rsrpDBm float64) bool {
	return rsrpDBm > sinrDB // want "unitflow: comparing dBm against dB"
}

// NRBFor maps a channel bandwidth to a resource-block count.
func NRBFor(bandwidthMHz float64) int {
	return int(bandwidthMHz * 5)
}

// BadArg passes a kHz quantity where the parameter expects MHz.
func BadArg(scskHz float64) int {
	return NRBFor(scskHz) // want "unitflow: argument is kHz but parameter bandwidthMHz of NRBFor expects MHz"
}

// BadDouble converts an already-linear power a second time.
func BadDouble(noiseMW float64) float64 {
	return math.Pow(10, noiseMW/10) // want "unitflow: 10\^\(x/10\) applied to a mW value"
}

// BadDoubleKernel converts an already-linear power a second time through
// the production kernel.
func BadDoubleKernel(noiseMW float64) float64 {
	return phy.DBToLinear(noiseMW) // want "unitflow: 10\^\(x/10\) applied to a mW value"
}

// BadKernelAssign stores the kernel's mW result in a dB variable: the
// kernel turns a dBm argument into mW.
func BadKernelAssign(rsrpDBm float64) float64 {
	var lossDB float64
	lossDB = phy.DBToLinear(rsrpDBm) // want "unitflow: assigning a mW expression to lossDB, declared dB"
	return lossDB
}

// BadKernelRatio stores a dB gain's linear ratio in a mW variable.
func BadKernelRatio(gainDB float64) float64 {
	var powMW float64
	powMW = phy.DBToLinear(gainDB) // want "unitflow: assigning a linear expression to powMW, declared mW"
	return powMW
}

// BadLog takes the log of a value already in the log domain.
func BadLog(sinrDB float64) float64 {
	return 10 * math.Log10(sinrDB) // want "unitflow: log10 of a dB value"
}

// BadAssign stores a relative offset in an absolute-level variable.
func BadAssign(gainDB float64) float64 {
	var lossDBm float64
	lossDBm = gainDB // want "unitflow: assigning a dB expression to lossDBm, declared dBm"
	return lossDBm
}

// BadField fills a dB field with an absolute level.
func BadField(rsrpDBm float64) Sample {
	return Sample{SINRdB: rsrpDBm} // want "unitflow: field SINRdB is dB but its value is dBm"
}

// BadAccumulate mixes domains through a compound assignment.
func BadAccumulate(powMW, gainDB float64) float64 {
	powMW += gainDB // want "unitflow: \+ mixes mW and dB operands"
	return powMW
}

// BadDrain subtracts a level from a level in place: the result is a
// relative dB quantity, but the variable still claims to be a level.
func BadDrain(totalDBm, noiseDBm float64) float64 {
	totalDBm -= noiseDBm // want "unitflow: -= leaves totalDBm holding a dB value but it is declared dBm"
	return totalDBm
}

// GoodAccumulate offsets a level in place: dBm += dB stays a level.
func GoodAccumulate(rsrpDBm, shadowDB float64) float64 {
	rsrpDBm += shadowDB
	return rsrpDBm
}

// GoodOffset is the link-budget idiom: offsetting an absolute level by
// a relative gain/loss stays a level.
func GoodOffset(rsrpDBm, shadowDB float64) float64 {
	return rsrpDBm + shadowDB
}

// GoodDelta is the other idiom: the difference of two levels is a
// relative quantity and may live in a ...dB name.
func GoodDelta(sigDBm, noiseDBm float64) float64 {
	sinrDB := sigDBm - noiseDBm
	return sinrDB
}

// GoodRoundTrip converts to linear, accumulates, and converts back —
// each conversion applied exactly once.
func GoodRoundTrip(aDBm, bDBm float64) float64 {
	sumMW := math.Pow(10, aDBm/10) + math.Pow(10, bDBm/10)
	return 10 * math.Log10(sumMW)
}

// GoodKernelRoundTrip is GoodRoundTrip through the production kernel.
func GoodKernelRoundTrip(aDBm, bDBm float64) float64 {
	sumMW := phy.DBToLinear(aDBm) + phy.DBToLinear(bDBm)
	return 10 * math.Log10(sumMW)
}

// thermalFloor returns the per-RE noise floor; the name carries no
// unit, which is what the directive below is for.
func thermalFloor() float64 { return -121.4 }

// GoodDirective annotates a suffix-less local so the subtraction
// checks as dBm − dBm.
func GoodDirective(s Sample) float64 {
	//detlint:unit dBm
	floor := thermalFloor()
	return s.RSRPdBm - floor
}

// BadDirectiveDim names a dimension the analyzer does not know.
func BadDirectiveDim() {
	// want "unitflow: unknown dimension \"decibels\""
	//detlint:unit decibels
}

// StaleDirective attaches to no unit-less variable.
func StaleDirective() {
	// want "unitflow: //detlint:unit mW attaches to no unit-less variable"
	//detlint:unit mW
}

// AllowedMix carries a reviewed allow for a deliberate mixed-domain
// heuristic.
func AllowedMix(xDB, yMW float64) float64 {
	return xDB + yMW //detlint:allow unitflow fixture: deliberate mixed-domain scoring heuristic
}

// GoodStaleAllow is covered by a directive that suppresses nothing.
func GoodStaleAllow(aDB, bDB float64) float64 {
	// want "stale //detlint:allow unitflow"
	//detlint:allow unitflow these operands share a unit already
	return aDB + bDB
}
