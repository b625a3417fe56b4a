// Package phy stands in for the simulator's PHY package: unitflow reads
// DBToLinear as the 10^(x/10) conversion.
package phy

import "math"

// DBToLinear returns 10^(x/10).
func DBToLinear(x float64) float64 { return math.Pow(10, x/10) }
