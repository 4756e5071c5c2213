package main

// metricDef names one reported metric. BENCHMARK.json at the
// repository root lists the same names and units.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "round_ms_p50", unit: "ms"},
	{name: "round_ms_tail", unit: "ms"},
	{name: "checked_round_ms_p50", unit: "ms"},
	{name: "allocs_per_round", unit: "count"},
	{name: "heap_mb", unit: "MB"},
}

type stepKey struct {
	key     string // layer.name
	checked bool   // the step also reports its ModeChecked time
}

// stepKeys lists every step of every workload. A traced run reports
// each one's metrics; steps a workload does not run read 0.
var stepKeys = []stepKey{
	{key: "bench.bfs-rmat"}, {key: "bench.sssp-rmat"}, {key: "bench.pr-rmat"}, {key: "bench.tc-rmat"},
	{key: "bench.bfs-road"}, {key: "bench.sssp-road"}, {key: "bench.pr-road"}, {key: "bench.tc-road"},
	{key: "suffix.array", checked: true}, {key: "suffix.bwt-decode", checked: true},
	{key: "core.sort"}, {key: "radix.sort"}, {key: "core.scan"}, {key: "core.pack"},
}

// perLayer returns the metrics of a traced run.
func perLayer() []metricDef {
	var defs []metricDef
	for _, s := range stepKeys {
		defs = append(defs,
			metricDef{name: s.key + "_ms", unit: "ms"},
			metricDef{name: s.key + "_allocs", unit: "count"},
			metricDef{name: s.key + "-seq_ms", unit: "ms"})
		if s.checked {
			defs = append(defs, metricDef{name: s.key + "-checked_ms", unit: "ms"})
		}
	}
	return append(defs,
		metricDef{name: "graph.build_ms", unit: "ms"},
		metricDef{name: "graph.compress_ms", unit: "ms"},
		metricDef{name: "graph.bytes_per_edge", unit: "bytes/edge"},
		metricDef{name: "graph.decode_edges_per_ns", unit: "edges/ns", higher: true},
		metricDef{name: "sched.steals_per_round", unit: "count"},
		metricDef{name: "sched.splits_per_round", unit: "count"},
		metricDef{name: "sched.parks_per_round", unit: "count"},
		metricDef{name: "gc.cycles_per_round", unit: "count"},
		metricDef{name: "gc.pause_ms_per_round", unit: "ms"},
		metricDef{name: "bench.self_ms", unit: "ms"},
		metricDef{name: "suffix.self_ms", unit: "ms"},
		metricDef{name: "core.self_ms", unit: "ms"},
		metricDef{name: "radix.self_ms", unit: "ms"},
		metricDef{name: "harness.self_ms", unit: "ms"},
		metricDef{name: "trace.overhead_ms", unit: "ms"},
	)
}
