package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// span is one traced interval: a round, or one step under its round.
// Counter fields are deltas over the interval.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // the round span's id; -1 for a round
	Round   int    `json:"round"`
	Name    string `json:"name"` // "round" or the step's layer.name
	Mode    string `json:"mode"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
	Mallocs uint64 `json:"mallocs"`
	GCs     uint32 `json:"gc_cycles"`
	PauseNs uint64 `json:"gc_pause_ns"`
	Steals  int64  `json:"steals"`
	Splits  int64  `json:"splits"`
	Parks   int64  `json:"parks"`
}

func (s *span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// counters is a snapshot of the runtime's and the pool's counters.
type counters struct {
	at                    time.Time
	mallocs, pauseNs      uint64
	gcs                   uint32
	steals, splits, parks int64
}

// tracer keeps spans in memory; write stores them as one JSON file.
type tracer struct {
	pool  *core.Pool
	epoch time.Time
	ms    runtime.MemStats
	spans []span
}

func newTracer(p *core.Pool) *tracer { return &tracer{pool: p, epoch: time.Now()} }

// open snapshots the counters at the start of an interval: pool
// counters first, so the slice Pool.Stats allocates falls outside it.
func (t *tracer) open() counters {
	var c counters
	t.addPool(&c)
	runtime.ReadMemStats(&t.ms)
	c.mallocs, c.gcs, c.pauseNs = t.ms.Mallocs, t.ms.NumGC, t.ms.PauseTotalNs
	c.at = time.Now()
	return c
}

// close snapshots the counters at the end of an interval, in the
// reverse order of open.
func (t *tracer) close() counters {
	var c counters
	c.at = time.Now()
	runtime.ReadMemStats(&t.ms)
	c.mallocs, c.gcs, c.pauseNs = t.ms.Mallocs, t.ms.NumGC, t.ms.PauseTotalNs
	t.addPool(&c)
	return c
}

func (t *tracer) addPool(c *counters) {
	for _, s := range t.pool.Stats() {
		c.steals += s.Stolen
		c.splits += s.SplitsSpawned
		c.parks += s.Parked
	}
}

func (t *tracer) add(id, parent, round int, name, mode string, a, b counters) {
	t.spans[id] = span{
		ID: id, Parent: parent, Round: round, Name: name, Mode: mode,
		StartNs: a.at.Sub(t.epoch).Nanoseconds(), EndNs: b.at.Sub(t.epoch).Nanoseconds(),
		Mallocs: b.mallocs - a.mallocs, GCs: b.gcs - a.gcs, PauseNs: b.pauseNs - a.pauseNs,
		Steals: b.steals - a.steals, Splits: b.splits - a.splits, Parks: b.parks - a.parks,
	}
}

// round runs one traced round: a round span with one span per step
// under it, counters snapshotted at every boundary.
func (t *tracer) round(round int, mode string, steps []step, p *core.Pool) roundResult {
	rid := len(t.spans)
	t.spans = append(t.spans, make([]span, 1+len(steps))...)
	rs := t.open()
	for i := range steps {
		a := t.open()
		steps[i].run(p)
		t.add(rid+1+i, rid, round, steps[i].key(), mode, a, t.close())
	}
	re := t.close()
	t.add(rid, -1, round, "round", mode, rs, re)
	return roundResult{wall: re.at.Sub(rs.at), mallocs: re.mallocs - rs.mallocs}
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Env      envInfo `json:"env"`
	Spans    []span  `json:"spans"`
}

func (t *tracer) write(path, workload string, seed uint64, env envInfo) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Env: env, Spans: t.spans})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetrics folds the spans into per-layer metrics. Step times and
// allocations are medians over rounds of their mode; counters are means
// per unchecked round; a layer's self time is its spans' time per
// unchecked round (steps have no child spans), and the harness's is the
// round spans' time not covered by a step.
func (t *tracer) layerMetrics(steps []step, m metrics) {
	byStep := map[string]map[string][]float64{} // key -> mode -> ms
	allocs := map[string][]float64{}
	self := map[string]float64{}
	var rounds, harness float64
	var steals, splits, parks, gcs, pauseNs float64
	covered := map[int]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == "round" {
			continue
		}
		if byStep[s.Name] == nil {
			byStep[s.Name] = map[string][]float64{}
		}
		byStep[s.Name][s.Mode] = append(byStep[s.Name][s.Mode], s.ms())
		if s.Mode == modeUnchecked {
			allocs[s.Name] = append(allocs[s.Name], float64(s.Mallocs))
			covered[s.Parent] += s.ms()
		}
	}
	layerOf := map[string]string{}
	for i := range steps {
		layerOf[steps[i].key()] = steps[i].layer
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.Mode != modeUnchecked:
		case s.Name == "round":
			rounds++
			harness += s.ms() - covered[s.ID]
			steals += float64(s.Steals)
			splits += float64(s.Splits)
			parks += float64(s.Parks)
			gcs += float64(s.GCs)
			pauseNs += float64(s.PauseNs)
		default:
			self[layerOf[s.Name]] += s.ms()
		}
	}
	for i := range steps {
		k := steps[i].key()
		m.set(k+"_ms", median(byStep[k][modeUnchecked]))
		m.set(k+"_allocs", median(allocs[k]))
		m.set(k+"-seq_ms", median(byStep[k][modeSeq]))
		if steps[i].checkedMetric {
			m.set(k+"-checked_ms", median(byStep[k][modeChecked]))
		}
	}
	if rounds == 0 {
		return
	}
	for layer, total := range self {
		m.set(layer+".self_ms", total/rounds)
	}
	m.set("harness.self_ms", harness/rounds)
	m.set("sched.steals_per_round", steals/rounds)
	m.set("sched.splits_per_round", splits/rounds)
	m.set("sched.parks_per_round", parks/rounds)
	m.set("gc.cycles_per_round", gcs/rounds)
	m.set("gc.pause_ms_per_round", pauseNs/1e6/rounds)
}
