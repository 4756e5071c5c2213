package sched

// This file holds the demand-driven parallel loop. The paper's Fig 4/6
// claim — a pattern library costing ≈1x over hand-rolled code at one
// thread — rests on the scheduler's uncontended path being near-free, so
// the loop splits lazily, Rayon-style: run the range as a sequential
// chunk loop and carve off the upper half only when a demand signal (a
// parked worker, or a thief raiding this worker's deque) indicates idle
// capacity. An uncontended loop therefore executes O(steals) tasks
// instead of the O(n/grain) an eager splitter creates.
//
// There is one engine, forAdaptive, and it allocates nothing in steady
// state: the body travels as a RangeBody interface value, and a split
// forks through Join with branch funcs prebuilt on a cached per-depth
// forFrame. For is a thin adapter that wraps its closure as a funcBody.

// RangeBody is a parallel loop body in object form: RunRange is invoked
// over disjoint subranges of [lo, hi), possibly concurrently on
// different workers, and must be safe under that concurrency. Callers
// keep the body state in a reusable per-worker box (internal/arena's
// box stacks), so the interface value is a pointer into already-live
// memory and passing it allocates nothing.
type RangeBody interface {
	RunRange(w *Worker, lo, hi int)
}

// funcBody adapts For's closure to RangeBody. A func value is
// pointer-shaped, so the conversion to the interface allocates nothing.
type funcBody func(w *Worker, lo, hi int)

func (f funcBody) RunRange(w *Worker, lo, hi int) { f(w, lo, hi) }

// For executes body over [lo, hi), lazily splitting off stealable
// subranges while idle workers exist, and running grain-sized chunks
// sequentially otherwise. Ranges passed to body are at most grain
// elements. grain <= 0 selects an automatic grain (about 8 tasks per
// worker under full subdivision). body may be invoked concurrently on
// disjoint subranges and must be safe under that concurrency.
func (w *Worker) For(lo, hi, grain int, body func(w *Worker, lo, hi int)) {
	w.ForBody(lo, hi, grain, funcBody(body))
}

// ForBody is For with the body in object form: body.RunRange runs over
// [lo, hi) with the same lazy splitting and grain rules. A caller whose
// body is a pointer to live state pays no allocation at all.
func (w *Worker) ForBody(lo, hi, grain int, body RangeBody) {
	if hi <= lo {
		return
	}
	if grain <= 0 {
		grain = grainFor(hi-lo, w.pool.Workers())
	}
	w.forAdaptive(lo, hi, grain, body)
}

// forAdaptive is the lazy splitter: it runs grain-sized sequential
// chunks until shouldSplit reports demand, then forks the remaining
// range's two halves through Join on the worker's forFrame for the
// current split depth. Each stolen half re-enters forAdaptive on the
// thief, so subdivision recursively tracks the number of idle workers.
func (w *Worker) forAdaptive(lo, hi, grain int, body RangeBody) {
	for hi-lo > grain && !w.shouldSplit() {
		body.RunRange(w, lo, lo+grain)
		lo += grain
	}
	if hi-lo <= grain {
		if hi > lo {
			body.RunRange(w, lo, hi)
		}
		return
	}
	w.nSplits.Add(1)
	fr := w.acquireForFrame()
	// Outside the loop, so the defer is open-coded: free on the normal
	// path, and it still releases the frame when Join re-raises a panic.
	defer w.releaseForFrame(fr)
	fr.lo, fr.mid, fr.hi, fr.grain, fr.body = lo, lo+(hi-lo)/2, hi, grain, body
	w.Join(fr.left, fr.right)
}

// forFrame is the record for one lazy split: both halves' bounds and the
// body, plus left/right branch funcs bound to the frame once, when it is
// created. Frames live in a per-worker cache indexed by split nesting
// depth — splits nest in strict LIFO order (a split returns only after
// Join saw both halves complete, and any split entered while helping is
// strictly deeper) — so the steady-state split allocates nothing.
//
// Reuse is race-free for the same reason join frames are: a thief
// running right reads the frame's fields before Join's completion latch
// flips, and the owner recycles the frame only after Join returns.
type forFrame struct {
	lo, mid, hi, grain int
	body               RangeBody
	left, right        func(w *Worker)
}

// acquireForFrame returns the reusable split frame for the worker's
// current split depth, growing the cache on first use of a new depth
// (the only allocation the loop ever performs).
func (w *Worker) acquireForFrame() *forFrame {
	d := w.forDepth
	w.forDepth++
	if d == len(w.forFrames) {
		fr := &forFrame{}
		fr.left = func(w2 *Worker) { w2.forAdaptive(fr.lo, fr.mid, fr.grain, fr.body) }
		fr.right = func(w2 *Worker) { w2.forAdaptive(fr.mid, fr.hi, fr.grain, fr.body) }
		w.forFrames = append(w.forFrames, fr)
	}
	return w.forFrames[d]
}

// releaseForFrame returns the current split frame to the cache.
func (w *Worker) releaseForFrame(fr *forFrame) {
	fr.body = nil // do not retain the body between splits
	w.forDepth--
}

// shouldSplit is the demand hint behind lazy splitting: split when idle
// capacity is observable — some worker is parked, or this worker's deque
// was raided since the last check (a thief is actively looking for our
// work). On a single-worker pool it is constant false, so a 1-worker
// loop is a plain sequential loop.
func (w *Worker) shouldSplit() bool {
	p := w.pool
	if len(p.workers) <= 1 {
		return false
	}
	if p.nparked.Load() > 0 {
		return true
	}
	if s := w.deque.Raids(); s != w.lastRaid {
		w.lastRaid = s
		return true
	}
	return false
}

// ForEachWorker runs body once per pool worker, in parallel, passing each
// invocation its worker. It is useful for initializing or reducing
// per-worker scratch state. Invocations are not guaranteed to land on
// distinct workers; bodies needing per-worker effects should key off
// w.ID().
func (w *Worker) ForEachWorker(body func(w *Worker)) {
	n := w.pool.Workers()
	w.For(0, n, 1, func(w *Worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(w)
		}
	})
}
