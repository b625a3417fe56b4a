// Command noop exits as soon as the Go runtime has started. midbench
// launches it next to each set-up launch of a workload: exec, page
// faults and runtime start-up slow with a busy host differently from
// computation, so set-up times are scaled by the CPU time of this bare
// launch rather than by the compute kernel. It imports nothing from the
// simulator, so no change to the simulator can move it.
package main

func main() {}
