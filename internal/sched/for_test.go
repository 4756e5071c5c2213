package sched

// Tests for the loop engine behind For and ForBody: coverage and
// correctness under forced splitting, zero-allocation steady state from
// both entry points, panic propagation and frame release, and frame
// reuse across nesting depths.

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// markBody marks each visited index; concurrent-safe via atomics so
// overlap (a double visit) is detected exactly.
type markBody struct {
	seen []atomic.Int32
}

func (m *markBody) RunRange(_ *Worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		m.seen[i].Add(1)
	}
}

func TestForBodyCoversRangeOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const n = 100_000
	body := &markBody{seen: make([]atomic.Int32, n)}
	p.Do(func(w *Worker) {
		w.ForBody(0, n, 64, body)
	})
	for i := range body.seen {
		if got := body.seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, got)
		}
	}
}

func TestForBodyEmptyAndReversedRange(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	body := &markBody{seen: make([]atomic.Int32, 8)}
	p.Do(func(w *Worker) {
		w.ForBody(3, 3, 0, body)
		w.ForBody(5, 2, 0, body)
	})
	for i := range body.seen {
		if got := body.seen[i].Load(); got != 0 {
			t.Fatalf("index %d visited %d times on empty ranges, want 0", i, got)
		}
	}
}

// splitHungryBody forces splitting by making shouldSplit's demand signal
// fire: it runs on a multi-worker pool where the other workers park and
// raid, and uses a tiny grain over a large range.
func TestForBodySplitsUnderDemand(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	waitParked(t, p, 3)
	const n = 1 << 16
	body := &markBody{seen: make([]atomic.Int32, n)}
	p.Do(func(w *Worker) {
		w.ForBody(0, n, 16, body)
	})
	for i := range body.seen {
		if got := body.seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, got)
		}
	}
	var splits int64
	for _, s := range p.Stats() {
		splits += s.SplitsSpawned
	}
	if splits == 0 {
		t.Fatalf("ForBody with parked workers spawned 0 splits, want > 0")
	}
}

// sumBody accumulates into a per-instance total with atomics.
type sumBody struct {
	total atomic.Int64
}

func (s *sumBody) RunRange(_ *Worker, lo, hi int) {
	var t int64
	for i := lo; i < hi; i++ {
		t += int64(i)
	}
	s.total.Add(t)
}

// nestBody runs a nested ForBody per outer range to exercise forFrame
// reuse across depths.
type nestBody struct {
	inner *sumBody
	width int
}

func (n *nestBody) RunRange(w *Worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		w.ForBody(0, n.width, 8, n.inner)
	}
}

func TestForBodyNestedFrameReuse(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const outer, width = 64, 1024
	inner := &sumBody{}
	body := &nestBody{inner: inner, width: width}
	p.Do(func(w *Worker) {
		w.ForBody(0, outer, 4, body)
	})
	want := int64(outer) * int64(width) * int64(width-1) / 2
	if got := inner.total.Load(); got != want {
		t.Fatalf("nested ForBody sum = %d, want %d", got, want)
	}
}

// panicBody panics at one specific index.
type panicBody struct {
	at int
}

func (p *panicBody) RunRange(_ *Worker, lo, hi int) {
	for i := lo; i < hi; i++ {
		if i == p.at {
			panic("forbody boom")
		}
	}
}

func TestForBodyPanicPropagates(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		r := recover()
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T (%v), want *TaskPanic", r, r)
		}
		if tp.Value != "forbody boom" {
			t.Fatalf("panic value = %v, want forbody boom", tp.Value)
		}
	}()
	p.Do(func(w *Worker) {
		// Index near the top so the panic often lands in a split half.
		w.ForBody(0, 1<<16, 16, &panicBody{at: 1<<16 - 7})
	})
	t.Fatal("ForBody with panicking body returned normally")
}

// The steady-state loop must not allocate once it splits, from either
// entry point. For's closure is built once, outside the timed loop, as a
// caller hoisting it would; ForBody's body is a heap pointer (as in real
// use: a per-worker box), so the interface conversion at the call site
// is free. AllocsPerRun pins GOMAXPROCS to 1, so each run first yields
// until the idle worker has parked: the loop then sees demand and
// splits. Splits must advance, or the split path went unmeasured.
func TestForBodyZeroAllocSteadyState(t *testing.T) {
	sum := &sumBody{}
	fn := func(w *Worker, lo, hi int) { sum.RunRange(w, lo, hi) }
	cases := []struct {
		name string
		loop func(w *Worker, n int)
	}{
		{"For", func(w *Worker, n int) { w.For(0, n, 64, fn) }},
		{"ForBody", func(w *Worker, n int) { w.ForBody(0, n, 64, sum) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool(2)
			defer p.Close()
			waitParked(t, p, 2)
			const n = 1 << 15
			var allocs float64
			var before, after int64
			p.Do(func(w *Worker) {
				// Warm up frame caches at every depth this range can reach.
				for i := 0; i < 5; i++ {
					tc.loop(w, n)
				}
				before = totalSplits(p)
				allocs = testing.AllocsPerRun(20, func() {
					awaitParked(p)
					tc.loop(w, n)
				})
				after = totalSplits(p)
			})
			if allocs != 0 {
				t.Errorf("steady-state %s allocated %.1f per run, want 0", tc.name, allocs)
			}
			if after == before {
				t.Errorf("%s spawned no splits in the timed runs; the split path went unmeasured", tc.name)
			}
		})
	}
}

// awaitParked yields until some worker is parked, giving up after a
// bounded number of yields. It does not allocate.
func awaitParked(p *Pool) {
	for i := 0; i < 1_000_000 && p.nparked.Load() == 0; i++ {
		runtime.Gosched()
	}
}

// totalSplits sums SplitsSpawned over the pool's workers.
func totalSplits(p *Pool) int64 {
	var n int64
	for _, s := range p.Stats() {
		n += s.SplitsSpawned
	}
	return n
}

// A panic in a split half must still release every for-frame on its way
// out, so the next loop at the same depth starts from a clean cache
// (the loop analog of TestJoinFrameReuseAfterPanic).
func TestForFrameReleaseAfterPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	waitParked(t, p, 3)
	const n = 1 << 16
	body := &markBody{seen: make([]atomic.Int32, n)}
	p.Do(func(w *Worker) {
		func() {
			defer func() {
				if _, ok := recover().(*TaskPanic); !ok {
					t.Error("For with a panicking body did not raise a *TaskPanic")
				}
			}()
			// Index near the top so the panic lands in a split half.
			w.For(0, n, 16, func(_ *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == n-7 {
						panic("for boom")
					}
				}
			})
		}()
		if w.forDepth != 0 {
			t.Errorf("forDepth = %d after a panicking For, want 0", w.forDepth)
		}
		// Same depths, same frames: must run cleanly.
		w.ForBody(0, n, 16, body)
	})
	for i := range body.seen {
		if got := body.seen[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times after frame reuse, want 1", i, got)
		}
	}
	if totalSplits(p) == 0 {
		t.Fatal("no splits spawned; the split-half panic path went untested")
	}
	for _, w := range p.workers {
		if w.forDepth != 0 {
			t.Errorf("worker %d: forDepth = %d, want 0", w.id, w.forDepth)
		}
		for d, fr := range w.forFrames {
			if fr.body != nil {
				t.Errorf("worker %d: forFrame %d retains its body after release", w.id, d)
			}
		}
	}
}

func BenchmarkForBodyOverhead(b *testing.B) {
	p := NewPool(2)
	defer p.Close()
	const n = 1 << 18
	body := &sumBody{}
	b.ReportAllocs()
	p.Do(func(w *Worker) {
		w.ForBody(0, n, 0, body) // warm-up
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.ForBody(0, n, 0, body)
		}
		b.StopTimer()
	})
}
