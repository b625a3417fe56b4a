// Multi-UE contention: six UEs attached to one shared cell under the full
// contention model (midband.NewContentionCell — per-UE HARQ processes and
// RLC-style buffers, integer-RB grants across the contending set, and
// load-coupled interference), comparing proportional-fair against
// round-robin scheduling. PF trades a little fairness for cell goodput by
// riding each UE's channel peaks; RR hands every backlogged UE the same
// slot share regardless of channel quality. Cell.Step is the same
// structure-of-arrays stepper that the campaign's multi-UE arm
// (cmd/campaign -ues-per-cell) runs at population scale, so six UEs here
// and 64 there exercise one engine. See docs/SIMULATION-MODEL.md for how
// the model maps to the paper.
package main

import (
	"fmt"
	"log"

	"github.com/midband5g/midband"
)

func main() {
	log.SetFlags(0)
	op, err := midband.OperatorByAcronym("V_Sp")
	if err != nil {
		log.Fatal(err)
	}
	const nUEs = 6
	ues := midband.UEPositions(11, nUEs)

	for _, policy := range []midband.SchedulerPolicy{
		midband.SchedulerProportionalFair,
		midband.SchedulerRoundRobin,
	} {
		cell, err := midband.NewContentionCell(op, midband.Stationary(99), policy, ues)
		if err != nil {
			log.Fatal(err)
		}
		const slots = 40000 // 20 s
		bits := make([]float64, nUEs)
		for i := 0; i < slots; i++ {
			for _, a := range cell.Step().Allocs {
				bits[a.UE] += float64(a.Alloc.DeliveredBits)
			}
		}
		secs := float64(slots) * cell.SlotDuration().Seconds()
		var total, sumsq float64
		for _, b := range bits {
			total += b
			sumsq += b * b
		}
		jain := total * total / (nUEs * sumsq)
		fmt.Printf("%-18s cell %7.1f Mbps   Jain %.3f   shares:", policy, total/secs/1e6, jain)
		for _, b := range bits {
			fmt.Printf(" %5.1f%%", 100*b/total)
		}
		fmt.Println()
	}
	fmt.Println("\nPF beats RR on cell goodput; RR equalizes slot time, not bits —")
	fmt.Println("far UEs convert their slots to fewer bits, so shares still differ.")
}
