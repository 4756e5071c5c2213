// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload as a closed loop with one client: a round runs every
// step of the workload's mix once, rounds follow each other with no
// pause, and every round's outputs are verified outside the timed
// interval. Inputs come from --seed; the program under test receives
// only the generated inputs. The last line of standard output is one
// JSON object holding the end-to-end metrics, or with --trace 1 the
// per-layer metrics of a traced run. See README.md.
//
//	perfbench --workload graph-plain --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

const (
	setupReps    = 5 // setups per run; setup_s is their median
	warmupRounds = 1 // unchecked+checked pairs run and discarded before timing
	seqRounds    = 2 // sequential rounds of a traced run
	probeReps    = 5 // decode probes of a traced run; the median is reported
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    graph.InputScale
	traceDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value; units come from the metric
// tables.
type metrics map[string]metric

func (m metrics) set(name string, v float64) {
	mt := m[name]
	mt.Value = v
	m[name] = mt
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// envInfo stamps every result with where it was measured.
type envInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostEnv() envInfo {
	return envInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() {
	var cfg config
	var traceLevel int
	flag.StringVar(&cfg.workload, "workload", "", "workload: graph-plain, graph-compressed or text")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceLevel, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".", "directory a traced run writes its spans to")
	flag.Parse()
	if (traceLevel != 0 && traceLevel != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		os.Exit(2)
	}
	cfg.trace = traceLevel == 1
	cfg.scale = graph.ScaleDefault
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run and reports its result; details go to
// log.
func run(cfg config, log io.Writer) (result, error) {
	spec, err := findWorkload(cfg.workload)
	if err != nil {
		return result{}, err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := hostEnv()
	pool := core.NewPool(env.NProc)
	defer pool.Close()
	core.SetMode(core.ModeUnchecked)

	su := setUp(pool, spec, cfg)
	inst := su.inst
	inst.oracle()
	inst.oracle = nil
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	r := &runner{pool: pool, steps: inst.steps}
	for i := 0; i < warmupRounds; i++ {
		r.round(modeUnchecked, false)
		r.round(modeChecked, false)
	}
	window := time.Duration(cfg.seconds * float64(time.Second))

	m := metrics{}
	var s series
	var traceFile string
	if !cfg.trace {
		for _, d := range endToEnd {
			m[d.name] = metric{Unit: d.unit}
		}
		s = r.measure(window, spec.checkedEvery)
		m.set("setup_s", median(su.seconds))
		m.set("round_ms_p50", median(s.unchecked))
		tv, _ := tail(s.unchecked)
		m.set("round_ms_tail", tv)
		m.set("checked_round_ms_p50", median(s.checked))
		m.set("allocs_per_round", float64(s.mallocs)/float64(len(s.unchecked)))
		m.set("heap_mb", heapMB)
	} else {
		for _, d := range perLayer() {
			m[d.name] = metric{Unit: d.unit}
		}
		r.tr = newTracer(pool)
		s = r.measure(window, spec.checkedEvery)
		for i := 0; i < seqRounds; i++ {
			r.round(modeSeq, true)
		}
		r.tr.layerMetrics(inst.steps, m)
		m.set("trace.overhead_ms", median(s.traced)-median(s.unchecked))
		m.set("graph.build_ms", median(su.buildMs))
		m.set("graph.compress_ms", median(su.compressMs))
		if len(inst.rows) > 0 {
			probes := make([]float64, probeReps)
			for i := range probes {
				probes[i] = decodeProbe(inst.rows)
			}
			m.set("graph.decode_edges_per_ns", median(probes))
			m.set("graph.bytes_per_edge", bytesPerEdge(inst.rows))
		}
		traceFile = filepath.Join(cfg.traceDir, fmt.Sprintf("perfbench-trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := r.tr.write(traceFile, cfg.workload, cfg.seed, env); err != nil {
			return result{}, err
		}
	}

	// Details, one line each, ahead of the result line.
	tv, pct := tail(s.unchecked)
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d trace=%t GOMAXPROCS=%d nproc=%d go=%s cpu=%q\n",
		cfg.workload, cfg.seed, cfg.trace, env.GOMAXPROCS, env.NProc, env.GoVersion, env.CPU)
	fmt.Fprintf(log, "perfbench: setup_s=%v (median of %d) heap_mb=%.3f rounds=%d (+%d checked) round_ms_p50=%.3f round_ms_tail=%.3f at p%.1f of %d rounds\n",
		median(su.seconds), len(su.seconds), heapMB, len(s.unchecked), len(s.checked), median(s.unchecked), tv, pct, len(s.unchecked))
	fmt.Fprintf(log, "perfbench: verified %d step outputs, %d failed (failed_ratio=%v)\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, e := range r.errs {
		fmt.Fprintln(log, "perfbench: verification failed:", e)
	}
	if cfg.trace {
		fmt.Fprintf(log, "perfbench: trace written to %s\n", traceFile)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}, nil
}

// setup is what a run's set-up phase leaves: the last instance built,
// and the time of each set-up.
type setup struct {
	inst                *instance
	seconds             []float64
	buildMs, compressMs []float64
}

// setUp builds the workload's instance setupReps times, each after a
// forced GC, and keeps the last.
func setUp(pool *core.Pool, spec workloadSpec, cfg config) setup {
	var su setup
	for i := 0; i < setupReps; i++ {
		su.inst = nil
		runtime.GC()
		var clk setupClock
		d := timed(func() {
			pool.Do(func(w *core.Worker) { su.inst = spec.setup(w, cfg.scale, cfg.seed, &clk) })
		})
		su.seconds = append(su.seconds, d.Seconds())
		su.buildMs = append(su.buildMs, ms(clk.build))
		su.compressMs = append(su.compressMs, ms(clk.compress))
	}
	return su
}
