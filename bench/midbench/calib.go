package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The benchmark shares its host with other machines. Their load moves
// the speed of a core by up to 2x within seconds, so raw times from two
// runs minutes apart do not compare. midbench therefore measures the
// host as it goes: the CPU time of a fixed CPU-bound kernel is the
// host's current per-core slowness. A workload child is stopped every
// pacePeriod while the kernel runs; an iteration's wall and CPU time are
// scaled by calibNominal over the mean kernel time around it, so they
// read as seconds on the reference host. Before scaling, an iteration's
// wall time also leaves out the steal time over it: time the hypervisor
// gave the CPUs to other machines, which CPU time never counts and which
// comes in bursts of up to a third of a core. Set-up launches, too short
// to stop or to resolve steal, are scaled by launches of a bare program
// instead (see setupTimes). The kernel belongs to the benchmark, so no
// change to the simulator can move it.

// calibNominal is the kernel's CPU time (both goroutines) on the
// reference 2-core host when idle; see README.md.
const calibNominal = 46 * time.Millisecond

// calibSteps sizes the kernel to about calibNominal. Tests shrink it:
// under the race detector the full kernel takes seconds.
var calibSteps = 1 << 20

// pacePeriod is how often a paced child is stopped for a calibration.
const pacePeriod = 500 * time.Millisecond

// calibSink keeps the kernel's results observable.
var calibSink [2]float64

// calibrate runs the kernel on two goroutines, one per core the
// workloads use, and returns their CPU time. CPU time, unlike wall time,
// does not depend on whether the host runs the two at once.
func calibrate() time.Duration {
	var wg sync.WaitGroup
	c0 := cpuTime()
	for g := range calibSink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			calibSink[g] = calibKernel(g)
		}(g)
	}
	wg.Wait()
	return cpuTime() - c0
}

// calibTables are the kernel's working sets, one per goroutine.
var calibTables [2]struct {
	f [8192]float64 // 64 KB
	i [32768]uint64 // 256 KB
}

// calibKernel mixes what the simulator's slot path does, in two halves
// that a busy neighbour slows in different ways: random draws feeding
// transcendental functions over a 64 KB table, then integer hashing,
// branches and lookups over a 256 KB table.
func calibKernel(g int) float64 {
	t := &calibTables[g]
	x := uint64(g) + 1
	acc := 0.0
	for i := 0; i < calibSteps/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(t.f))
		v := float64(x>>11) * 0x1p-53
		t.f[j] = 0.5*t.f[j] + math.Exp(-4*v) + math.Log1p(v)
		acc += t.f[(j*31)%uint64(len(t.f))]
	}
	var n uint64
	for i := 0; i < 3*calibSteps/2; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(len(t.i))
		switch x & 3 {
		case 0:
			t.i[j] += x >> 3
		case 1:
			n += t.i[(j*7)%uint64(len(t.i))]
		default:
			acc = acc*0.999 + float64(x&0xffff)
		}
		if i&15 == 0 {
			acc += math.Sqrt(float64(n & 0xffffff))
		}
	}
	return acc + float64(n)
}

// scaled converts a duration measured while the kernel took cal to
// seconds on the reference host.
func scaled(d, cal time.Duration) float64 {
	return d.Seconds() * float64(calibNominal) / float64(cal)
}

// calibrator brackets short timed units: a unit is scaled by the mean of
// the calibration just before it and the one just after, which is also
// the next unit's "before".
type calibrator struct{ last time.Duration }

func newCalibrator() *calibrator { return &calibrator{last: calibrate()} }

// after calibrates and returns the mean of this and the previous
// calibration.
func (c *calibrator) after() time.Duration {
	next := calibrate()
	mean := (c.last + next) / 2
	c.last = next
	return mean
}

// pause is one stop of a paced child, with the calibration run during it,
// the per-CPU steal time over it and the child's resident set.
type pause struct {
	start, end time.Time
	cal, steal time.Duration
	rssKB      int64
}

type pauses []pause

// pace stops the child every pacePeriod, samples its resident set and
// calibrates while it is stopped, and resumes it, until done is closed.
// A child that has exited (or cannot be stopped) ends the pacing.
func pace(p *os.Process, done <-chan struct{}) pauses {
	var ps pauses
	tick := time.NewTicker(pacePeriod)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return ps
		case <-tick.C:
		}
		steal0, start := stealTime(), now()
		if p.Signal(syscall.SIGSTOP) != nil {
			return ps
		}
		stopped := waitStopped(p.Pid)
		var cal time.Duration
		var rss int64
		if stopped {
			rss = residentKB(p.Pid)
			cal = calibrate()
		}
		if p.Signal(syscall.SIGCONT) != nil || !stopped {
			return ps
		}
		ps = append(ps, pause{start: start, end: now(), cal: cal, steal: stealTime() - steal0, rssKB: rss})
	}
}

// residentKB returns a process's resident set in KiB from
// /proc/<pid>/status, or 0 where that cannot be read.
func residentKB(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64) // unparsable reads as unsampled
			return kb
		}
	}
	return 0
}

// rssP90 is the 90th percentile (nearest rank) of the resident set
// sampled at the pauses, in MiB; false when no pause sampled it.
func (ps pauses) rssP90() (float64, bool) {
	var xs []float64
	for _, p := range ps {
		if p.rssKB > 0 {
			xs = append(xs, float64(p.rssKB)/1024)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	return sorted(xs)[(9*len(xs)+9)/10-1], true
}

// waitStopped polls the process state until the stop has taken effect.
// It reports false for a process that has exited or does not stop
// within 100 ms.
func waitStopped(pid int) bool {
	path := fmt.Sprintf("/proc/%d/stat", pid)
	for i := 0; i < 1000; i++ {
		b, err := os.ReadFile(path)
		if err != nil {
			return false
		}
		// The state is the field after the parenthesized command name.
		if j := bytes.LastIndexByte(b, ')'); j >= 0 && j+2 < len(b) {
			switch b[j+2] {
			case 'T', 't':
				return true
			case 'Z', 'X':
				return false
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return false
}

// paused is the total stopped time.
func (ps pauses) paused() time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.end.Sub(p.start)
	}
	return d
}

// stolen is the total steal time over the pauses.
func (ps pauses) stolen() time.Duration {
	var d time.Duration
	for _, p := range ps {
		d += p.steal
	}
	return d
}

// over returns the running (unstopped) time within [s, e], the steal
// time of the pauses inside it, and the mean calibration of those pauses
// plus the nearest one on each side. ps must not be empty.
func (ps pauses) over(s, e time.Time) (active, steal, cal time.Duration) {
	active = e.Sub(s)
	from, to := 0, len(ps)-1
	for i, p := range ps {
		if p.end.After(s) && p.start.Before(e) {
			active -= minTime(p.end, e).Sub(maxTime(p.start, s))
			steal += p.steal
		}
		if !p.end.After(s) {
			from = i // the last pause before the interval
		}
		if !p.start.Before(e) && i < to {
			to = i // the first pause after it
		}
	}
	var sum time.Duration
	for _, p := range ps[from : to+1] {
		sum += p.cal
	}
	return active, steal, sum / time.Duration(to-from+1)
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
