package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sample is one timed iteration as a child reports it. Start and end
// are wall-clock instants, so the parent can take out the time it kept
// the child stopped; CPU time does not run while stopped. StealNs is the
// per-CPU steal time over the same interval (see stealTime).
type sample struct {
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	CPUNs   int64  `json:"cpu_ns"`
	StealNs int64  `json:"steal_ns"`
	Digest  string `json:"digest,omitempty"`
	Err     string `json:"err,omitempty"`
}

// childReport is what an in-process workload child prints on stdout.
// The warm-up iteration is checked but not counted.
type childReport struct {
	Warmup sample   `json:"warmup"`
	Iters  []sample `json:"iters"`
}

// minIters is the fewest counted iterations a run makes, however long
// each one takes. It binds only for figures (up to 20 s an iteration on
// a slow host), where it keeps a run near a minute.
const minIters = 3

// timeIteration runs one iteration and measures it.
func timeIteration(run func() (string, error)) sample {
	c0, s0, t0 := cpuTime(), stealTime(), now()
	digest, err := run()
	s := sample{
		StartNs: t0.UnixNano(), EndNs: now().UnixNano(),
		CPUNs: int64(cpuTime() - c0), StealNs: int64(stealTime() - s0), Digest: digest,
	}
	if err != nil {
		s.Err = err.Error()
	}
	return s
}

// runChild is the body of `midbench -child <workload>`: build the inputs,
// run one warm-up iteration, then iterate in a closed loop until the
// measuring time has passed and at least minIters iterations are in. An
// iteration that fails ends the loop.
func runChild(name string, seed int64, seconds float64, sc scale, setupOnly bool, out io.Writer) error {
	w, err := setupWorkload(name, seed, sc)
	if err != nil {
		return err
	}
	defer w.cleanup()
	if setupOnly {
		return nil
	}
	rep := childReport{Warmup: timeIteration(w.run)}
	if rep.Warmup.Err == "" {
		limit := time.Duration(seconds * float64(time.Second))
		for start := now(); len(rep.Iters) < minIters || now().Sub(start) < limit; {
			s := timeIteration(w.run)
			rep.Iters = append(rep.Iters, s)
			if s.Err != "" {
				break
			}
		}
	}
	return json.NewEncoder(out).Encode(rep)
}

// proc is one finished child process, measured from the parent.
type proc struct {
	start  time.Time
	wall   time.Duration // exec to exit, less the time kept stopped
	stolen time.Duration // per-CPU steal time within wall
	cpu    time.Duration // user+system CPU of the child
	maxRSS int64         // peak resident set, KiB
	rss    float64       // MiB: p90 of the resident set sampled at the stops, or the peak if none sampled it
	pauses pauses        // stops for calibration, when paced
}

// launch runs a program to completion with stdout going to the given
// writer, and measures it. Every child is pinned to the two cores the
// benchmark is sized for. A paced child is stopped every pacePeriod for
// a calibration (see calib.go) and has at least one. The error carries
// the tail of its stderr.
func launch(ctx context.Context, paced bool, stdout io.Writer, name string, args ...string) (proc, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout = stdout
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	steal0 := stealTime()
	p := proc{start: now()}
	end := p.start
	err := cmd.Start()
	if err == nil {
		done := make(chan struct{})
		var wg sync.WaitGroup
		if paced {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.pauses = pace(cmd.Process, done)
			}()
		}
		err = cmd.Wait()
		end = now()
		close(done)
		wg.Wait()
	}
	p.wall = end.Sub(p.start) - p.pauses.paused()
	p.stolen = stealTime() - steal0 - p.pauses.stolen()
	if paced && len(p.pauses) == 0 {
		// Exited before the first stop: calibrate once, after it.
		p.pauses = pauses{{start: end, end: end, cal: calibrate()}}
	}
	if st := cmd.ProcessState; st != nil {
		p.cpu = st.UserTime() + st.SystemTime()
		if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
			p.maxRSS = ru.Maxrss
		}
	}
	p.rss = float64(p.maxRSS) / 1024
	if v, ok := p.pauses.rssP90(); ok {
		p.rss = v
	}
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 400 {
			msg = "..." + msg[len(msg)-400:]
		}
		return p, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err, msg)
	}
	return p, nil
}
