package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
)

// The two graph workloads run the same four kernels (hybrid BFS,
// delta-stepping SSSP, 10-iteration pull PageRank, triangle counting)
// on the same seeded rmat and road inputs. graph-plain runs them over
// sorted CSR; graph-compressed over group-varint rows with the
// shared-pool compressed transpose and a compressed TC DAG. Both verify
// against oracles computed on the plain graphs, so a round's verified
// results are identical across the two.

// graphInputs are the standard inputs each graph round visits: rmat has
// skewed degrees and a low diameter, road a high diameter with many
// thin BFS levels.
var graphInputs = []string{graph.InputRMAT, graph.InputRoad}

// prIters pins PageRank's round count so every run does identical work
// and the oracle is bit-exact.
const prIters = 10

// src is the BFS and SSSP source vertex.
const src = 0

// plainInput is one input in sorted plain CSR: the graph, its
// transpose, the weighted graph SSSP relaxes and the degree-ordered DAG
// triangle counting intersects.
type plainInput struct {
	g, tg, dag *graph.Graph
	wg         *graph.WGraph
}

// loadPlain generates one seeded input and builds its plain CSR forms.
// Only the Builder calls count towards clk.build; generation is the
// loader's work.
func loadPlain(w *core.Worker, name string, sc graph.InputScale, seed uint64, clk *setupClock) plainInput {
	once, n := graph.UndirectedEdgeList(w, name, sc, seed)
	sym := graph.Symmetrize(w, once)
	wedges := graph.AddWeights(w, sym, 1<<16, seed+1)
	var in plainInput
	clk.timeBuild(func() {
		// One Builder per output: a build invalidates the previous
		// graph returned by the same Builder.
		var gb, tb, wb, db graph.Builder
		in.g = gb.BuildSorted(w, n, sym)
		in.tg = tb.Transpose(w, in.g)
		graph.SortAdjacency(w, in.tg)
		in.wg = wb.BuildWSorted(w, n, wedges)
		dagEdges, dn := bench.TCOrientEdges(in.g)
		in.dag = db.BuildSorted(w, dn, dagEdges)
	})
	return in
}

// compressedInput is one input in group-varint form. ctg shares cg's
// byte pool.
type compressedInput struct {
	cg, ctg, cdag *graph.CGraph
	cw            *graph.CWGraph
}

func compress(w *core.Worker, in plainInput, clk *setupClock) compressedInput {
	var c compressedInput
	clk.timeCompress(func() {
		var gb, wb, db graph.Builder
		c.cg = gb.Compress(w, in.g)
		c.ctg = gb.CompressTranspose(w, in.tg)
		c.cw = wb.CompressW(w, in.wg)
		c.cdag = db.Compress(w, in.dag)
	})
	return c
}

// graphOracle holds one input's sequential reference results.
type graphOracle struct {
	bfs  []uint32
	sssp []uint32
	pr   []float64
	tc   int64
}

func oracleOf(in plainInput) *graphOracle {
	return &graphOracle{
		bfs:  bench.BFSOracle(in.g, src),
		sssp: bench.DijkstraOracle(in.wg, src),
		pr:   bench.PROracle(in.g, in.tg, prIters),
		tc:   bench.TCOracle(in.dag),
	}
}

// graphKernels are the four kernel handles of one input over one
// representation.
type graphKernels[A graph.Adjacency, W graph.WAdjacency] struct {
	bfs    *bench.BFSKernel[A]
	sssp   *bench.SSSPKernel[W]
	pr     *bench.PRKernel[A]
	tc     *bench.TCKernel[A]
	tcWant int64
}

func newGraphKernels[A graph.Adjacency, W graph.WAdjacency](g, tg, dag A, wg W) *graphKernels[A, W] {
	k := &graphKernels[A, W]{
		bfs:  bench.NewBFSKernel(g, tg, src),
		sssp: bench.NewSSSPKernel(wg, src),
		pr:   bench.NewPRKernel(g, tg),
		tc:   bench.NewTCKernel(dag),
	}
	k.pr.SetIters(prIters)
	return k
}

func (k *graphKernels[A, W]) setWant(o *graphOracle) {
	k.bfs.SetWant(o.bfs)
	k.sssp.SetWant(o.sssp)
	k.pr.SetWant(o.pr)
	k.tcWant = o.tc
}

// steps returns the input's four timed kernel calls, in round order.
// SSSP starts its own MultiQueue goroutines, so it runs outside
// Pool.Do with the pool's worker count.
func (k *graphKernels[A, W]) steps(input string) []step {
	bfsRun, prRun, tcRun := k.bfs.Run, k.pr.Run, k.tc.Run
	return []step{
		{
			layer: "bench", name: "bfs-" + input,
			reset:  k.bfs.Reset,
			run:    func(p *core.Pool) { onPool(p, bfsRun) },
			verify: k.bfs.Verify,
		},
		{
			layer: "bench", name: "sssp-" + input,
			reset:  k.sssp.Reset,
			run:    func(p *core.Pool) { k.sssp.Run(threads(p)) },
			verify: k.sssp.Verify,
		},
		{
			layer: "bench", name: "pr-" + input,
			reset:   k.pr.Reset,
			run:     func(p *core.Pool) { onPool(p, prRun) },
			verify:  k.pr.Verify,
			corrupt: func() { k.pr.Ranks()[0] += 1 },
		},
		{
			layer: "bench", name: "tc-" + input,
			run: func(p *core.Pool) { onPool(p, tcRun) },
			verify: func() error {
				if got := k.tc.Count(); got != k.tcWant {
					return fmt.Errorf("tc-%s: counted %d triangles, want %d", input, got, k.tcWant)
				}
				return nil
			},
		},
	}
}

// rowSource is one graph whose rows the decode probe streams.
type rowSource interface {
	NumVertices() int32
	NumEdges() int64
	MaxDegree() int32
	RowInto(v int32, buf []int32) []int32
	FootprintBytes() int64
}

// probeSink keeps the decode probe's last neighbor alive.
var probeSink atomic.Int32

// decodeProbe streams every row of every source once through RowInto
// on one thread and returns edges decoded per nanosecond.
func decodeProbe(srcs []rowSource) float64 {
	var edges int64
	var sink int32
	start := time.Now()
	for _, g := range srcs {
		buf := make([]int32, g.MaxDegree())
		for v := int32(0); v < g.NumVertices(); v++ {
			if row := g.RowInto(v, buf); len(row) > 0 {
				sink ^= row[len(row)-1]
			}
		}
		edges += g.NumEdges()
	}
	el := time.Since(start)
	probeSink.Store(sink)
	return float64(edges) / float64(el.Nanoseconds())
}

// bytesPerEdge is the forward adjacency footprint of srcs over their
// edge count.
func bytesPerEdge(srcs []rowSource) float64 {
	var bytes, edges int64
	for _, g := range srcs {
		bytes += g.FootprintBytes()
		edges += g.NumEdges()
	}
	return float64(bytes) / float64(edges)
}

// setupGraph builds the graph workloads' instance. compressed selects
// the group-varint representation; the plain graphs are then encoder
// input and oracle input only, and are dropped after the oracles.
func setupGraph(compressed bool) setupFunc {
	return func(w *core.Worker, sc graph.InputScale, seed uint64, clk *setupClock) *instance {
		inst := &instance{}
		var oracleJobs []func()
		for _, name := range graphInputs {
			in := loadPlain(w, name, sc, seed, clk)
			var setWant func(*graphOracle)
			if compressed {
				c := compress(w, in, clk)
				k := newGraphKernels(c.cg, c.ctg, c.cdag, c.cw)
				inst.steps = append(inst.steps, k.steps(name)...)
				inst.rows = append(inst.rows, c.cg)
				setWant = k.setWant
			} else {
				k := newGraphKernels(in.g, in.tg, in.dag, in.wg)
				inst.steps = append(inst.steps, k.steps(name)...)
				inst.rows = append(inst.rows, in.g)
				setWant = k.setWant
			}
			oracleJobs = append(oracleJobs, func() { setWant(oracleOf(in)) })
		}
		inst.oracle = func() {
			for _, job := range oracleJobs {
				job()
			}
		}
		return inst
	}
}
