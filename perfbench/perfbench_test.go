package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// quick runs one workload at the test scale for a fraction of a second.
func quick(t *testing.T, workload string, seed uint64, trace bool) result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: seed, seconds: 0.05, trace: trace,
		scale: graph.ScaleTest, traceDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d: correct=%t attempted=%d failed=%d", workload, seed, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestMetricsMatchBenchmarkJSON pins the metric tables to the
// repository's BENCHMARK.json: same names, units and directions.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var raw struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			better := "lower"
			if w.higher {
				better = "higher"
			}
			if got[i].Name != w.name || got[i].Unit != w.unit || got[i].Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark reports %s %s %s", kind, i, got[i], w.name, w.unit, better)
			}
		}
	}
	check("end_to_end", raw.EndToEnd, endToEnd)
	check("per_layer", raw.PerLayer, perLayer())
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks that each reports exactly its metric table, with units.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := quick(t, w.name, 1, trace)
			want := endToEnd
			if trace {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestStepsListed checks every workload's steps appear in stepKeys, so
// a traced run reports them.
func TestStepsListed(t *testing.T) {
	pool := core.NewPool(2)
	defer pool.Close()
	for _, w := range workloads {
		var inst *instance
		pool.Do(func(wk *core.Worker) { inst = w.setup(wk, graph.ScaleTest, 1, &setupClock{}) })
		for i := range inst.steps {
			k := inst.steps[i].key()
			want := stepKey{key: k, checked: inst.steps[i].checkedMetric}
			if !slices.Contains(stepKeys, want) {
				t.Errorf("%s: step %s (checked=%t) missing from stepKeys", w.name, k, inst.steps[i].checkedMetric)
			}
		}
	}
}

func TestTwoSeedsVerify(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{7, 1234567} {
			quick(t, w.name, seed, false)
		}
	}
}

// TestCorruptionCounted damages each step's output after a clean round
// and checks verification counts exactly one more failure.
func TestCorruptionCounted(t *testing.T) {
	pool := core.NewPool(2)
	defer pool.Close()
	for _, w := range workloads {
		var inst *instance
		pool.Do(func(wk *core.Worker) { inst = w.setup(wk, graph.ScaleTest, 3, &setupClock{}) })
		inst.oracle()
		r := &runner{pool: pool, steps: inst.steps}
		corrupted := 0
		for i := range inst.steps {
			if inst.steps[i].corrupt == nil {
				continue
			}
			r.round(modeUnchecked, false)
			if r.failed != corrupted {
				t.Fatalf("%s: clean round counted %d failures, want %d", w.name, r.failed, corrupted)
			}
			inst.steps[i].corrupt()
			r.verify()
			corrupted++
			if r.failed != corrupted {
				t.Fatalf("%s: corrupting %s counted %d failures, want %d", w.name, inst.steps[i].key(), r.failed, corrupted)
			}
		}
		if corrupted == 0 {
			t.Errorf("%s: no step can be corrupted", w.name)
		}
	}
}

// TestGraphRepresentationsAgree runs the plain and the compressed
// kernels on one seeded input: TC counts, PR ranks and SSSP distances
// are identical, and both BFS runs match the one oracle.
func TestGraphRepresentationsAgree(t *testing.T) {
	pool := core.NewPool(2)
	defer pool.Close()
	for _, name := range graphInputs {
		var kp *graphKernels[*graph.Graph, *graph.WGraph]
		var kc *graphKernels[*graph.CGraph, *graph.CWGraph]
		var o *graphOracle
		pool.Do(func(w *core.Worker) {
			var clk setupClock
			in := loadPlain(w, name, graph.ScaleTest, 5, &clk)
			c := compress(w, in, &clk)
			kp = newGraphKernels(in.g, in.tg, in.dag, in.wg)
			kc = newGraphKernels(c.cg, c.ctg, c.cdag, c.cw)
			o = oracleOf(in)
		})
		kp.setWant(o)
		kc.setWant(o)
		for _, steps := range [][]step{kp.steps(name), kc.steps(name)} {
			for i := range steps {
				if steps[i].reset != nil {
					steps[i].reset()
				}
				steps[i].run(pool)
				if err := steps[i].verify(); err != nil {
					t.Fatalf("%s: %v", steps[i].key(), err)
				}
			}
		}
		if kp.tc.Count() != kc.tc.Count() {
			t.Errorf("%s: tc %d plain vs %d compressed", name, kp.tc.Count(), kc.tc.Count())
		}
		if !slices.Equal(kp.pr.Ranks(), kc.pr.Ranks()) {
			t.Errorf("%s: PageRank ranks differ between representations", name)
		}
		if !slices.Equal(kp.sssp.Dist(), kc.sssp.Dist()) {
			t.Errorf("%s: SSSP distances differ between representations", name)
		}
	}
}

// TestBytesPerEdgeRepeats: the representation metric is a pure function
// of the seed.
func TestBytesPerEdgeRepeats(t *testing.T) {
	pool := core.NewPool(2)
	defer pool.Close()
	var got []float64
	for i := 0; i < 2; i++ {
		var inst *instance
		pool.Do(func(w *core.Worker) { inst = setupGraph(true)(w, graph.ScaleTest, 9, &setupClock{}) })
		got = append(got, bytesPerEdge(inst.rows))
	}
	if got[0] != got[1] || got[0] <= 0 {
		t.Fatalf("graph.bytes_per_edge %v then %v", got[0], got[1])
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[100-1-i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:5]); v != 100 || pct != 100 {
		t.Fatalf("tail of 5 samples = %v at p%v, want the maximum at p100", v, pct)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}
