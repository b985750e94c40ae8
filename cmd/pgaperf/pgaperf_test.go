package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{0.9, 1.0, 1.1, 1.2, 1.0, 0.95, 1.05, 1.0, 1.02, 0.98}, 0.9725, 1.0, 1.0625},
	}
	for _, c := range cases {
		q1, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 || math.Abs(median(c.xs)-c.med) > 1e-12 {
			t.Errorf("%v: got q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, median(c.xs), q3, c.q1, c.med, c.q3)
		}
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample succeeded")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	if _, _, ok := tail(make([]float64, tailBeyond)); ok {
		t.Fatalf("tail of %d samples succeeded; no percentile has %d beyond it", tailBeyond, tailBeyond)
	}
	for _, n := range []int{11, 20, 57, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64((i*7919)%n + 1) // a permutation of 1..n
		}
		v, pct, ok := tail(xs)
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
}

// fakeWorkload counts its untraced calls — call 0 is the warm-up, so
// seed-run i is call i+1 — fails calls 3, 6, 9, and, traced, reports an
// extra evaluation on calls 4 and 8.
func fakeWorkload() workload {
	calls := -1
	return workload{run: func(seed uint64, tr *tracer, lay *layers) outcome {
		if tr == nil {
			calls++
		}
		o := outcome{
			setup: time.Millisecond, wall: time.Duration(calls+1) * time.Millisecond,
			evals: 100, evaluations: 100, evolved: 90, alloc: 900,
			batches: 2, sent: 2, delivered: 2,
			latencies: []time.Duration{time.Microsecond, 2 * time.Microsecond},
		}
		if calls%3 == 0 {
			o.delivered = 1
			o.failf("call %d fails", calls)
		}
		if tr != nil && calls%4 == 0 {
			o.evaluations++
		}
		return o
	}}
}

func TestFailuresAreCountedAndMarkTheRunIncorrect(t *testing.T) {
	res, _ := measure(fakeWorkload(), 1, 0, false, io.Discard)
	if res.Attempted != minSeedRuns {
		t.Fatalf("attempted %d, want %d", res.Attempted, minSeedRuns)
	}
	if res.Failed != 3 || res.Correct {
		t.Fatalf("failed %d correct %v, want 3 false", res.Failed, res.Correct)
	}
	if got, want := res.Metrics["solved_share"].Value, 8.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("solved_share %v, want %v", got, want)
	}
	if got, want := res.Metrics["delivered_share"].Value, 19.0/22; math.Abs(got-want) > 1e-12 {
		t.Errorf("delivered_share %v, want %v", got, want)
	}
	if got := res.Metrics["alloc_bytes_per_eval"].Value; got != 10 {
		t.Errorf("alloc_bytes_per_eval %v, want 10", got)
	}
}

func TestTracedDivergenceIsAFailure(t *testing.T) {
	res, _ := measure(fakeWorkload(), 1, 0, true, io.Discard)
	// Three seed-runs fail untraced and two more diverge when traced.
	if res.Correct || res.Failed != 5 {
		t.Fatalf("correct %v failed %d, want false 5", res.Correct, res.Failed)
	}
}

func TestCheckBounds(t *testing.T) {
	var b benchFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
		{"name": "evals_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), &b); err != nil {
		t.Fatal(err)
	}
	set := func(setup, rate []float64) []result {
		var out []result
		for i := range setup {
			out = append(out, result{Metrics: map[string]metric{
				"setup_s": {setup[i], "s"}, "evals_per_s": {rate[i], "1/s"}}})
		}
		return out
	}
	steady := set([]float64{1, 1.02, 0.98, 1}, []float64{100, 101, 99, 100})
	if lines, ok := checkBounds(b, steady, nil); !ok {
		t.Errorf("steady set rejected: %v", lines)
	}
	noisy := set([]float64{1, 1, 1, 1}, []float64{80, 100, 120, 100})
	if _, ok := checkBounds(b, noisy, nil); ok {
		t.Error("evals_per_s spread of 0.3 accepted under bound 0.1")
	}
	noisySetup := set([]float64{1, 2, 3, 4}, []float64{100, 101, 99, 100})
	if _, ok := checkBounds(b, noisySetup, nil); ok {
		t.Error("setup_s spread of about 1 accepted under bound 0.25")
	}
	slower := set([]float64{1, 1.02, 0.98, 1}, []float64{88, 89, 87, 88})
	if _, ok := checkBounds(b, steady, slower); ok {
		t.Error("a 12% drop in evals_per_s accepted under bound 0.1")
	}
	slowSetup := set([]float64{1.3, 1.326, 1.274, 1.3}, []float64{100, 101, 99, 100})
	if _, ok := checkBounds(b, steady, slowSetup); ok {
		t.Error("a 30% slower setup_s accepted under bound 0.25")
	}
	if lines, ok := checkBounds(b, steady, steady); !ok {
		t.Errorf("identical sets rejected: %v", lines)
	}
}

// TestWorkloadsSmoke runs one untraced and one traced seed-run of every
// workload and checks they pass their output checks and agree.
func TestWorkloadsSmoke(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			o := w.run(7, nil, nil)
			if o.failure == "" && w.check != nil {
				o.failure = w.check(7, o)
			}
			if o.failure != "" {
				t.Fatalf("untraced: %s", o.failure)
			}
			if o.evals <= 0 || o.wall <= 0 || o.sent == 0 || o.delivered != o.sent {
				t.Errorf("untraced outcome evals %d wall %v sent %d delivered %d", o.evals, o.wall, o.sent, o.delivered)
			}
			tr := newTracer()
			var lay layers
			to := w.run(7, tr, &lay)
			if to.failure != "" {
				t.Fatalf("traced: %s", to.failure)
			}
			if to.evaluations != o.evaluations || to.evals != o.evals || to.migrations != o.migrations {
				t.Errorf("traced run made %d evaluations (solve at %d, %d migrations), untraced %d (%d, %d)",
					to.evaluations, to.evals, to.migrations, o.evaluations, o.evals, o.migrations)
			}
			if len(tr.snapshot()) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestBenchmarkFileNamesTheEmittedMetrics keeps BENCHMARK.json and the
// program in step: the same metric names with the same units.
func TestBenchmarkFileNamesTheEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a pgaperf workload", w.Name)
		}
		wl = append(wl, w.Name)
	}
	if len(wl) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, pgaperf has %d", len(wl), len(workloads))
	}

	e2e, _ := endToEnd([]outcome{{wall: time.Second}})
	if len(b.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, pgaperf emits %d", len(b.EndToEnd), len(e2e))
	}
	for _, m := range b.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s [%s]: pgaperf emits %+v (present %v)", m.Name, m.Unit, got, ok)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, pgaperf emits %d", len(b.PerLayer), len(perLayerUnits))
	}
	for i, m := range b.PerLayer {
		if want := perLayerUnits[i]; m.Name != want.name || m.Unit != want.unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], pgaperf %s [%s]", i, m.Name, m.Unit, want.name, want.unit)
		}
	}
}

func TestBlockTailIsTheMedianOfBlockTails(t *testing.T) {
	// Three blocks of 100: the middle one holds a slow phase.
	xs := make([]float64, 0, 350)
	for b := 0; b < 3; b++ {
		for i := 0; i < tailBlock; i++ {
			x := float64(i + 1) // 1..100, p90 of a block is 90
			if b == 1 {
				x *= 3
			}
			xs = append(xs, x)
		}
	}
	xs = append(xs, 1000, 1000) // a remainder shorter than a block is left out
	v, pct, blocks, ok := blockTail(xs)
	if !ok || v != 90 || pct != 90 || blocks != 3 {
		t.Errorf("blockTail = %v at p%v over %d blocks (ok %v), want 90 at p90 over 3", v, pct, blocks, ok)
	}
	// Fewer samples than a block: the plain tail.
	v, pct, blocks, ok = blockTail(xs[:50])
	if wv, wp, _ := tail(xs[:50]); !ok || v != wv || pct != wp || blocks != 1 {
		t.Errorf("blockTail of 50 = %v at p%v over %d blocks, want the tail %v at p%v", v, pct, blocks, wv, wp)
	}
}

func TestDriftFreeTailIgnoresASlowPhase(t *testing.T) {
	// Two blocks of 100 samples in [1, 2), pseudo-randomly ordered; then
	// the same with a slow phase making samples 100..159 half as fast
	// again. The plain block tail moves with the phase; the drift-free
	// tail moves only as far as the median of all samples does.
	calm := make([]float64, 2*tailBlock)
	for i := range calm {
		calm[i] = 1 + float64((i*37)%100)/100
	}
	slow := append([]float64(nil), calm...)
	for i := 100; i < 160; i++ {
		slow[i] *= 1.5
	}
	want, _, _, _ := driftFreeTail(calm)
	got, pct, _, ok := driftFreeTail(slow)
	if shift := median(slow) / median(calm); !ok || pct != 90 || math.Abs(got/want-shift) > 0.03 {
		t.Errorf("drift-free tail %v at p%v with a slow phase, %v without; the median moved by a factor %v", got, pct, want, shift)
	}
	plainCalm, _, _, _ := blockTail(calm)
	plainSlow, _, _, _ := blockTail(slow)
	if plainSlow/plainCalm-1 < 0.1 {
		t.Errorf("plain block tail moved only from %v to %v: the case does not test drift", plainCalm, plainSlow)
	}
}
