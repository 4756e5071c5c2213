package main

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/radix"
	"repro/internal/seqgen"
	"repro/internal/suffix"
)

// The text workload: suffix-array construction and BWT decode over
// seeded Zipfian text, plus the sequence primitives (D&C sort, radix
// sort, exclusive scan, pack) over seeded exponential keys. It touches
// no graph or mq code. Its suffix calls take the checked SngInd path
// when the round runs under core.ModeChecked.

type textInput struct {
	text, bwt []byte
	keys      []uint32 // exponential keys: sort, radix and pack input
	bits      int      // radix key width
	scanIn    []int64  // keys widened so the prefix sums cannot overflow
	packBelow uint32   // pack keeps indices whose key is below this

	// Outputs, overwritten every round.
	sa                []int32
	decoded           []byte
	sortBuf, radixBuf []uint32
	scanOut           []int64
	scanTotal         int64
	packOut           []int32

	// Oracles.
	saWant        []int32
	sortedWant    []uint32
	scanWant      []int64
	scanTotalWant int64
	packWant      []int32
}

// textScale is the text workload's input scale, one below the graph
// workloads': at the default scale a round then takes about a third of
// a second (100K text, 1M keys), where the suite's default sizes take
// 1.4s and leave too few rounds in a run for a tail percentile.
func textScale(sc graph.InputScale) graph.InputScale { return max(sc-1, graph.ScaleTest) }

func setupText(w *core.Worker, sc graph.InputScale, seed uint64, clk *setupClock) *instance {
	sc = textScale(sc)
	n, m := bench.TextSize(sc), bench.SeqSize(sc)
	t := &textInput{
		text: seqgen.Text(w, n, seed),
		keys: seqgen.ExponentialInts(w, m, seed+1),
	}
	t.bwt = suffix.BWTEncode(w, t.text)
	maxKey := slices.Max(t.keys)
	t.bits = radix.BitsFor(uint64(maxKey))
	t.packBelow = maxKey / 16
	t.scanIn = make([]int64, m)
	for i, k := range t.keys {
		t.scanIn[i] = int64(k)
	}
	t.sortBuf = make([]uint32, m)
	t.radixBuf = make([]uint32, m)
	t.scanOut = make([]int64, m)
	return &instance{steps: t.steps(), oracle: t.oracles}
}

// oracles computes the sequential reference outputs: DC3 for the
// suffix array, the standard library sort for both sorts, plain loops
// for scan and pack. The BWT decode is checked by round trip.
func (t *textInput) oracles() {
	t.saWant = suffix.ArrayDC3(t.text)
	t.sortedWant = slices.Clone(t.keys)
	slices.Sort(t.sortedWant)
	t.scanWant = make([]int64, len(t.scanIn))
	var sum int64
	for i, x := range t.scanIn {
		t.scanWant[i] = sum
		sum += x
	}
	t.scanTotalWant = sum
	for i, k := range t.keys {
		if k < t.packBelow {
			t.packWant = append(t.packWant, int32(i))
		}
	}
}

// keep is pack's predicate. It is a method value, not a function
// literal: rpblint's race and lifetime censuses walk every .go file under
// the repository root, this module included, and count each literal
// passed to a core primitive as a parallel region of the repro module.
func (t *textInput) keep(i int) bool { return t.keys[i] < t.packBelow }

func checked() bool { return core.GetMode() == core.ModeChecked }

func (t *textInput) steps() []step {
	// The worker bodies are built once, so a round allocates no
	// closures of its own.
	saRun := func(w *core.Worker) { t.sa = suffix.ArrayOpts(w, t.text, checked()) }
	bwtRun := func(w *core.Worker) { t.decoded = suffix.BWTDecodeOpts(w, t.bwt, checked()) }
	sortRun := func(w *core.Worker) { core.Sort(w, t.sortBuf) }
	radixRun := func(w *core.Worker) { radix.SortU32(w, t.radixBuf, t.bits) }
	scanRun := func(w *core.Worker) { t.scanTotal = core.ScanExclusiveInto(w, t.scanOut, t.scanIn) }
	keep := t.keep
	packRun := func(w *core.Worker) { t.packOut = core.PackIndexInto(w, len(t.keys), keep, t.packOut) }
	verifySort := func(name string, got []uint32) func() error {
		return func() error {
			if !slices.IsSorted(got) {
				return fmt.Errorf("%s: output not sorted", name)
			}
			if !slices.Equal(got, t.sortedWant) {
				return fmt.Errorf("%s: output is not a permutation of the input", name)
			}
			return nil
		}
	}
	return []step{
		{
			layer: "suffix", name: "array", checkedMetric: true,
			run: func(p *core.Pool) { onPool(p, saRun) },
			verify: func() error {
				if i := firstDiff(t.sa, t.saWant); i >= 0 {
					return fmt.Errorf("suffix array differs from DC3 at %d", i)
				}
				return nil
			},
			corrupt: func() { t.sa[0]++ },
		},
		{
			layer: "suffix", name: "bwt-decode", checkedMetric: true,
			run: func(p *core.Pool) { onPool(p, bwtRun) },
			verify: func() error {
				if !bytes.Equal(t.decoded, t.text) {
					return fmt.Errorf("BWT decode does not round-trip (%d vs %d bytes)", len(t.decoded), len(t.text))
				}
				return nil
			},
			corrupt: func() { t.decoded[0] ^= 1 },
		},
		{
			layer: "core", name: "sort",
			reset:   func() { copy(t.sortBuf, t.keys) },
			run:     func(p *core.Pool) { onPool(p, sortRun) },
			verify:  verifySort("core.sort", t.sortBuf),
			corrupt: func() { t.sortBuf[0], t.sortBuf[len(t.sortBuf)-1] = t.sortBuf[len(t.sortBuf)-1], t.sortBuf[0] },
		},
		{
			layer: "radix", name: "sort",
			reset:   func() { copy(t.radixBuf, t.keys) },
			run:     func(p *core.Pool) { onPool(p, radixRun) },
			verify:  verifySort("radix.sort", t.radixBuf),
			corrupt: func() { t.radixBuf[len(t.radixBuf)-1]++ },
		},
		{
			layer: "core", name: "scan",
			run: func(p *core.Pool) { onPool(p, scanRun) },
			verify: func() error {
				if i := firstDiff(t.scanOut, t.scanWant); i >= 0 || t.scanTotal != t.scanTotalWant {
					return fmt.Errorf("exclusive scan differs at %d (total %d, want %d)", i, t.scanTotal, t.scanTotalWant)
				}
				return nil
			},
			corrupt: func() { t.scanOut[1]++ },
		},
		{
			layer: "core", name: "pack",
			run: func(p *core.Pool) { onPool(p, packRun) },
			verify: func() error {
				if i := firstDiff(t.packOut, t.packWant); i >= 0 {
					return fmt.Errorf("pack differs at %d", i)
				}
				return nil
			},
			corrupt: func() { t.packOut = t.packOut[:len(t.packOut)-1] },
		},
	}
}

// firstDiff returns the first index where got and want differ (the
// shorter length when one is a prefix of the other), or -1.
func firstDiff[T comparable](got, want []T) int {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	if len(got) != len(want) {
		return n
	}
	return -1
}
