package main

import (
	"runtime"
	"time"
)

// layers collects the traced run's per-layer samples that do not come
// from spans: runtime counters, replays and the untraced twin of each
// traced seed-run.
type layers struct {
	seedRuns int
	// runWalls are the traced seed-runs' walls (runnable → stop).
	runWalls []time.Duration
	// overheadMS is traced wall − untraced wall per seed-run.
	overheadMS []float64
	// buildMS is the untraced seed-runs' spec.Build wall.
	buildMS []float64
	// gcCycles and gcPauseMS are the untraced seed-runs' collector work.
	gcCycles, gcPauseMS []float64

	evaluations, migrations []float64
	restarts                int64

	captureMS, checkpointBytes []float64

	// serial is the replayed one-goroutine evaluation time of the
	// serialEvals genomes the farm evaluated.
	serial         time.Duration
	serialEvals    int64
	tasks          []int64
	failedAttempts int64

	deliverUS, batchBytes, marshalUS, unmarshalUS []float64
	dropped, reconnects                           int64
}

// perLayerUnits lists every per-layer metric with its unit, in the
// order BENCHMARK.json names them. A metric whose layer the workload
// does not exercise reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"ga.step_us", "us"},
	{"ga.reproduce_ns_per_birth", "ns"},
	{"core.evaluate_share", "ratio"},
	{"core.evaluations", "count"},
	{"masterslave.evaluate_all_ms", "ms"},
	{"masterslave.parallel_efficiency", "ratio"},
	{"masterslave.task_imbalance", "ratio"},
	{"masterslave.failed_attempts", "count"},
	{"apps.evaluate_us", "us"},
	{"island.effective_parallelism", "ratio"},
	{"island.non_step_share", "ratio"},
	{"island.migrations", "count"},
	{"migration.pick_us", "us"},
	{"migration.integrate_us", "us"},
	{"supervise.restarts", "count"},
	{"persist.capture_ms", "ms"},
	{"persist.checkpoint_bytes", "B"},
	{"persist.batch_bytes", "B"},
	{"persist.marshal_us", "us"},
	{"persist.unmarshal_us", "us"},
	{"transport.send_us", "us"},
	{"transport.deliver_us", "us"},
	{"transport.dropped", "count"},
	{"transport.reconnects", "count"},
	{"spec.build_ms", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ms", "ms"},
	{"trace.spans", "count"},
}

// perLayer derives the per-layer metrics from the spans and samples of
// a traced run.
func perLayer(lay *layers, spans []span, demes int) map[string]metric {
	v := map[string]float64{}
	var steps, picks, integrates, sends, evalAll []float64
	var stepTotal, childEval, evalTotal time.Duration
	var births int64
	for _, s := range spans {
		switch s.kind {
		case spanStep:
			steps = append(steps, us(s.dur()))
			stepTotal += s.dur()
		case spanEvaluate:
			evalAll = append(evalAll, ms(s.dur()))
			evalTotal += s.dur()
			if s.parent >= 0 {
				childEval += s.dur()
				births += s.n
			}
		case spanPick:
			picks = append(picks, us(s.dur()))
		case spanIntegrate:
			integrates = append(integrates, us(s.dur()))
		case spanSend:
			sends = append(sends, us(s.dur()))
		}
	}
	var runTotal time.Duration
	for _, w := range lay.runWalls {
		runTotal += w
	}

	if len(steps) > 0 {
		v["ga.step_us"] = median(steps)
		v["core.evaluate_share"] = float64(childEval) / float64(stepTotal)
	}
	if births > 0 {
		v["ga.reproduce_ns_per_birth"] = float64(stepTotal-childEval) / float64(births)
	}
	v["core.evaluations"] = median(lay.evaluations)
	if lay.tasks != nil {
		v["masterslave.evaluate_all_ms"] = median(evalAll)
		v["masterslave.parallel_efficiency"] = float64(lay.serial) / (float64(len(lay.tasks)) * float64(evalTotal))
		v["masterslave.task_imbalance"] = imbalance(lay.tasks)
		v["masterslave.failed_attempts"] = float64(lay.failedAttempts)
		v["apps.evaluate_us"] = us(lay.serial) / float64(lay.serialEvals)
	}
	if demes > 0 && runTotal > 0 {
		par := min(demes, runtime.GOMAXPROCS(0))
		v["island.effective_parallelism"] = float64(stepTotal) / float64(runTotal)
		v["island.non_step_share"] = 1 - float64(stepTotal)/(float64(runTotal)*float64(par))
		v["island.migrations"] = median(lay.migrations)
		v["migration.pick_us"] = median(picks)
		v["migration.integrate_us"] = median(integrates)
		v["supervise.restarts"] = float64(lay.restarts)
		v["persist.capture_ms"] = median(lay.captureMS)
		v["persist.checkpoint_bytes"] = median(lay.checkpointBytes)
		v["spec.build_ms"] = median(lay.buildMS)
	}
	v["persist.batch_bytes"] = median(lay.batchBytes)
	v["persist.marshal_us"] = median(lay.marshalUS)
	v["persist.unmarshal_us"] = median(lay.unmarshalUS)
	v["transport.send_us"] = median(sends)
	v["transport.deliver_us"] = median(lay.deliverUS)
	v["transport.dropped"] = float64(lay.dropped)
	v["transport.reconnects"] = float64(lay.reconnects)
	v["runtime.gc_cycles"] = mean(lay.gcCycles)
	v["runtime.gc_pause_ms"] = mean(lay.gcPauseMS)
	v["trace.overhead_ms"] = median(lay.overheadMS)
	if lay.seedRuns > 0 {
		v["trace.spans"] = float64(len(spans)) / float64(lay.seedRuns)
	}

	out := make(map[string]metric, len(perLayerUnits))
	for _, m := range perLayerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// imbalance is the most over the fewest tasks any worker completed.
func imbalance(tasks []int64) float64 {
	lo, hi := tasks[0], tasks[0]
	for _, n := range tasks[1:] {
		lo, hi = min(lo, n), max(hi, n)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
