package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// step is one timed call into a layer, with its verification.
type step struct {
	layer, name string
	// checkedMetric reports the step's time under core.ModeChecked as a
	// per-layer metric of its own (the calls whose code the mode
	// switches).
	checkedMetric bool
	reset         func()             // untimed, before each call; may be nil
	run           func(p *core.Pool) // the timed call; a nil pool runs it sequentially
	verify        func() error       // untimed, after each round
	corrupt       func()             // damages the latest output (self-test); may be nil
}

func (s *step) key() string { return s.layer + "." + s.name }

// instance is one workload's prepared state: its steps in round order,
// and for the graph workloads the forward adjacency of each input.
type instance struct {
	steps []step
	rows  []rowSource
	// oracle computes the reference outputs the steps verify against. It
	// runs once, after setup is timed, and is then dropped with whatever
	// it alone holds.
	oracle func()
}

// setupFunc generates a workload's inputs from seed and builds its
// instance. Builder and encoder time is added to clk.
type setupFunc func(w *core.Worker, sc graph.InputScale, seed uint64, clk *setupClock) *instance

type workloadSpec struct {
	name  string
	setup setupFunc
	// checkedEvery: every this many unchecked rounds, the round also runs
	// under core.ModeChecked. The graph kernels take no checked path, so
	// their checked rounds are a sparse guard that leaves more rounds for
	// the unchecked tail.
	checkedEvery int
}

var workloads = []workloadSpec{
	{"graph-plain", setupGraph(false), 4},
	{"graph-compressed", setupGraph(true), 4},
	{"text", setupText, 1},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// setupClock accumulates the graph layer's share of one setup.
type setupClock struct{ build, compress time.Duration }

func (c *setupClock) timeBuild(f func())    { c.build += timed(f) }
func (c *setupClock) timeCompress(f func()) { c.compress += timed(f) }

func timed(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}

// onPool runs f on the pool, or sequentially with a nil worker.
func onPool(p *core.Pool, f func(w *core.Worker)) {
	if p == nil {
		f(nil)
		return
	}
	p.Do(f)
}

// threads is the worker count a call that starts its own goroutines
// uses: the pool's, or 1 for the sequential baseline.
func threads(p *core.Pool) int {
	if p == nil {
		return 1
	}
	return p.Workers()
}

// Round modes: every round runs each step once, unchecked or under
// core.ModeChecked; seq rounds run each step sequentially (traced runs
// only).
const (
	modeUnchecked = "unchecked"
	modeChecked   = "checked"
	modeSeq       = "seq"
)

// runner executes rounds of one instance and counts verifications.
type runner struct {
	pool      *core.Pool
	steps     []step
	tr        *tracer // set for a traced run
	ms        runtime.MemStats
	rounds    int
	attempted int
	failed    int
	errs      []error // the first few verification failures
}

// roundResult is one round's timed interval and allocation count.
type roundResult struct {
	wall    time.Duration
	mallocs uint64
}

// round resets every step, runs each once under mode with the timer on,
// then verifies every output with the timer off. traced records the
// round's spans.
func (r *runner) round(mode string, traced bool) roundResult {
	for i := range r.steps {
		if r.steps[i].reset != nil {
			r.steps[i].reset()
		}
	}
	p := r.pool
	switch mode {
	case modeChecked:
		core.SetMode(core.ModeChecked)
	case modeSeq:
		p = nil
	}
	id := r.rounds
	r.rounds++
	var res roundResult
	if traced {
		res = r.tr.round(id, mode, r.steps, p)
	} else {
		runtime.ReadMemStats(&r.ms)
		m0 := r.ms.Mallocs
		start := time.Now()
		for i := range r.steps {
			r.steps[i].run(p)
		}
		res.wall = time.Since(start)
		runtime.ReadMemStats(&r.ms)
		res.mallocs = r.ms.Mallocs - m0
	}
	core.SetMode(core.ModeUnchecked)
	r.verify()
	return res
}

func (r *runner) verify() {
	for i := range r.steps {
		r.attempted++
		if err := r.steps[i].verify(); err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, fmt.Errorf("round %d, %s: %w", r.rounds-1, r.steps[i].key(), err))
			}
		}
	}
}

// series is the measured rounds of a run.
type series struct {
	unchecked, checked []float64 // untraced round times, ms
	traced             []float64 // traced unchecked round times, ms
	mallocs            uint64    // over the untraced unchecked rounds
}

// measure runs unchecked rounds until the deadline, each
// checkedEvery-th followed by the same round under core.ModeChecked. It
// always completes at least one of each. In a traced run every unchecked
// round is followed by a traced one, so the two see the same phases of
// the machine and their difference is the tracing overhead; checked
// rounds are traced.
func (r *runner) measure(d time.Duration, checkedEvery int) series {
	var s series
	traced := r.tr != nil
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		u := r.round(modeUnchecked, false)
		s.unchecked = append(s.unchecked, ms(u.wall))
		s.mallocs += u.mallocs
		if traced {
			t := r.round(modeUnchecked, true)
			s.traced = append(s.traced, ms(t.wall))
		}
		if i%checkedEvery == 0 {
			c := r.round(modeChecked, traced)
			s.checked = append(s.checked, ms(c.wall))
		}
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
