package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// outcome is one seed-run as the end-to-end metrics see it. A GA
// seed-run evolves one runtime from its initial population to the
// target; a wire seed-run is one closed-loop exchange of a fixed number
// of migrant batches between two TCP endpoints.
type outcome struct {
	// setup is the time from generated inputs to a runnable runtime.
	setup time.Duration
	// wall is the time from the runnable runtime to its stop.
	wall time.Duration
	// evals is the effort at the stop: evaluations at the solve for a GA,
	// evaluated migrants carried for the wire.
	evals int64
	// evaluations is the run's total evaluation count (RunStats);
	// evolved is the part of it made during wall.
	evaluations, evolved int64
	// alloc is the heap bytes allocated during wall.
	alloc uint64
	// gcCycles and gcPause are the collector's work during wall.
	gcCycles uint32
	gcPause  time.Duration
	// batches counts the migrant batches the runtime moved during wall.
	batches int64
	// latencies are one-way batch latencies; sent and delivered count
	// the batches they were taken on and those that arrived intact.
	latencies       []time.Duration
	sent, delivered int64
	// migrations and restarts echo the island runtime's counters.
	migrations, restarts int64
	// failure is empty when the seed-run reached its target and passed
	// every output check.
	failure string
}

// failf records the first failed check of a seed-run.
func (o *outcome) failf(format string, args ...any) {
	if o.failure == "" {
		o.failure = fmt.Sprintf(format, args...)
	}
}

// memWindow measures the heap and GC activity of one window of work.
type memWindow struct{ before runtime.MemStats }

// start opens the window. ReadMemStats stops the world, so windows are
// opened and closed outside the timed intervals.
func (w *memWindow) start() { runtime.ReadMemStats(&w.before) }

// stop closes the window and stores its deltas into o.
func (w *memWindow) stop(o *outcome) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	o.alloc = after.TotalAlloc - w.before.TotalAlloc
	o.gcCycles = after.NumGC - w.before.NumGC
	o.gcPause = time.Duration(after.PauseTotalNs - w.before.PauseTotalNs)
}

// maxRSSMB returns the process's peak resident set size in MB
// (getrusage reports kilobytes on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is what a run records beside its metrics: the sample counts
// behind each tail, and the percentile and block count it was taken at.
type summary struct {
	solved, batches             int
	tailPct, batchTailPct       float64
	tailBlocks, batchTailBlocks int
}

// endToEnd aggregates the untraced seed-runs of one workload into the
// end-to-end metrics. Rates are medians of the passing seed-runs'
// rates. A tail without enough samples beyond it (only possible when
// seed-runs failed, which already marks the run incorrect) reads 0.
func endToEnd(outs []outcome) (map[string]metric, summary) {
	var sum summary
	var setups, solvedWalls, effort, evalRates, batchRates, lats []float64
	var evolved, sent, delivered int64
	var alloc uint64
	for _, o := range outs {
		setups = append(setups, o.setup.Seconds())
		evolved += o.evolved
		alloc += o.alloc
		sent += o.sent
		delivered += o.delivered
		for _, l := range o.latencies {
			lats = append(lats, ms(l))
		}
		if o.failure != "" {
			continue
		}
		solvedWalls = append(solvedWalls, o.wall.Seconds())
		effort = append(effort, float64(o.evals))
		evalRates = append(evalRates, float64(o.evolved)/o.wall.Seconds())
		batchRates = append(batchRates, float64(o.batches)/o.wall.Seconds())
	}
	sum.solved, sum.batches = len(solvedWalls), len(lats)
	ttTail, pct, blocks, _ := driftFreeTail(solvedWalls)
	latTail, latPct, latBlocks, _ := driftFreeTail(lats)
	sum.tailPct, sum.batchTailPct = pct, latPct
	sum.tailBlocks, sum.batchTailBlocks = blocks, latBlocks
	delivShare := 0.0
	if sent > 0 {
		delivShare = float64(delivered) / float64(sent)
	}
	perEval := 0.0
	if evolved > 0 {
		perEval = float64(alloc) / float64(evolved)
	}
	return map[string]metric{
		"setup_s":                   {median(setups), "s"},
		"time_to_target_p50_s":      {median(solvedWalls), "s"},
		"time_to_target_tail_s":     {ttTail, "s"},
		"evals_to_target_p50":       {median(effort), "count"},
		"evals_per_s":               {median(evalRates), "1/s"},
		"solved_share":              {float64(len(solvedWalls)) / float64(len(outs)), "ratio"},
		"max_rss_mb":                {maxRSSMB(), "MB"},
		"alloc_bytes_per_eval":      {perEval, "B"},
		"migration_latency_p50_ms":  {median(lats), "ms"},
		"migration_latency_tail_ms": {latTail, "ms"},
		"migrations_per_s":          {median(batchRates), "1/s"},
		"delivered_share":           {delivShare, "ratio"},
	}, sum
}
