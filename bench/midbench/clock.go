package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the harness's only clock read. midbench times the simulator
// from outside; no reading ever reaches a simulation input, and every
// simulated output is checked against a digest instead.
func now() time.Time {
	return time.Now() //detlint:allow walltime benchmark timing taken outside the simulation; outputs are pinned by digests
}

// cpuTime returns this process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime returns how long, since boot and on average per CPU, the
// hypervisor has run other machines on this machine's CPUs: the steal
// column of /proc/stat over the number of CPUs. The column counts
// USER_HZ ticks, 10 ms on Linux, so a difference of two readings is
// exact to 10 ms over the CPU count. It is 0 where /proc/stat is
// missing.
func stealTime() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	var ticks int64
	cpus := 0
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || !strings.HasPrefix(f[0], "cpu"):
		case f[0] != "cpu":
			cpus++
		case len(f) > 8:
			ticks, _ = strconv.ParseInt(f[8], 10, 64) // unparsable reads as no steal
		}
	}
	if cpus == 0 {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond / time.Duration(cpus)
}

// span is one timed call into a layer. Spans are kept in memory and
// written out as JSON when the traced run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans for one process. Not safe for concurrent use:
// the ledger replays layers on a single goroutine.
type tracer struct {
	spans []span
}

// begin opens a span and returns its id (parent 0 is the root).
func (t *tracer) begin(parent int, workload, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: workload,
		StartNs: now().UnixNano(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	t.spans[id-1].EndNs = now().UnixNano()
}

// add records an already-timed span.
func (t *tracer) add(parent int, workload, name string, start time.Time, d time.Duration) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Workload: workload,
		StartNs: start.UnixNano(), EndNs: start.Add(d).UnixNano(),
	})
}

// merge appends another process's spans under parent, renumbering ids.
func (t *tracer) merge(parent int, spans []span) {
	base := len(t.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent == 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}
