// Command pgaperf is the repository's same-host benchmark. It runs one
// workload for a fixed time from a workload seed, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a separately traced run) as the last line of its output:
//
//	pgaperf -workload onemax-islands -seed 1 -seconds 30 -trace 0
//
// Workloads: onemax-islands, onemax-islands-supervised, imagereg-farm,
// wire-migration. BENCHMARK.json at the repository root names every
// metric and its bound; README.md in this directory says why each
// workload was chosen and which layer moves which metric.
//
// The -spread mode applies the benchmark's acceptance rule to saved
// results:
//
//	pgaperf -spread BENCHMARK.json first.jsonl [second.jsonl]
//
// Each file holds the last output lines of several runs of one
// workload; it fails when a metric's quartile spread exceeds its bound,
// or when the second set's median is worse than the first's by more
// than the bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pga/internal/spec"
)

// minSeedRuns keeps a run going past its time until a tail percentile
// with tailBeyond samples beyond it exists.
const minSeedRuns = tailBeyond + 1

// workload is one benchmark workload.
type workload struct {
	// run performs one seed-run, traced when tr is non-nil (lay then
	// collects the per-layer samples).
	run func(seed uint64, tr *tracer, lay *layers) outcome
	// check is an extra output check on an untraced seed-run.
	check func(seed uint64, o outcome) string
	// demes is the island count (0 for non-island workloads, whose
	// set-up is not spec.Build).
	demes int
}

var workloads = map[string]workload{
	"onemax-islands": {
		run:   func(s uint64, tr *tracer, lay *layers) outcome { return runIslands(s, false, tr, lay) },
		demes: islandDemes,
	},
	"onemax-islands-supervised": {
		run:   func(s uint64, tr *tracer, lay *layers) outcome { return runIslands(s, true, tr, lay) },
		check: sameAsUnsupervised,
		demes: islandDemes,
	},
	"imagereg-farm":  {run: runFarm},
	"wire-migration": {run: runWire},
}

// sameAsUnsupervised checks that a fault-free supervised seed-run
// follows the unsupervised trajectory: identical evaluation counts.
func sameAsUnsupervised(seed uint64, o outcome) string {
	u := runIslands(seed, false, nil, nil)
	if u.evaluations != o.evaluations || u.evals != o.evals {
		return fmt.Sprintf("supervised run made %d evaluations (solve at %d), unsupervised %d (solve at %d)",
			o.evaluations, o.evals, u.evaluations, u.evals)
	}
	return ""
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pgaperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	secs := fs.Float64("seconds", 30, "measured time")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	spreadBench := fs.String("spread", "", "BENCHMARK.json: check the spread of saved results instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spreadBench != "" {
		return spreadMain(*spreadBench, fs.Args(), stdout, stderr)
	}
	w, ok := workloads[*name]
	if !ok || *traced < 0 || *traced > 1 || *secs <= 0 {
		fmt.Fprintf(stderr, "pgaperf: need -workload (one of onemax-islands, onemax-islands-supervised, imagereg-farm, wire-migration), -seconds > 0 and -trace 0|1\n")
		return 2
	}

	res, rec := measure(w, *seed, time.Duration(*secs*float64(time.Second)), *traced == 1, stderr)
	rec["workload"] = *name
	recLine, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", recLine)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "pgaperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs seed-runs of w for d (and at least minSeedRuns) after
// one unreported warm-up seed-run, and aggregates them.
func measure(w workload, seed uint64, d time.Duration, traced bool, stderr io.Writer) (result, map[string]any) {
	w.run(spec.DeriveSeed(seed, 1, 0), nil, nil)

	var outs []outcome
	var lay layers
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	began := time.Now()
	for i := 0; i < minSeedRuns || time.Since(began) < d; i++ {
		s := spec.DeriveSeed(seed, 0, i)
		o := w.run(s, nil, nil)
		if o.failure == "" && w.check != nil && !traced {
			o.failure = w.check(s, o)
		}
		if traced {
			t := w.run(s, tr, &lay)
			if o.failure == "" && (t.evaluations != o.evaluations || t.evals != o.evals || t.migrations != o.migrations) {
				t.failf("traced run diverged: %d evaluations (solve at %d), untraced %d (solve at %d)",
					t.evaluations, t.evals, o.evaluations, o.evals)
			}
			if o.failure != "" {
				t.failf("untraced twin: %s", o.failure)
			}
			lay.seedRuns++
			lay.overheadMS = append(lay.overheadMS, ms(t.wall-o.wall))
			lay.gcCycles = append(lay.gcCycles, float64(o.gcCycles))
			lay.gcPauseMS = append(lay.gcPauseMS, ms(o.gcPause))
			if w.demes > 0 {
				lay.buildMS = append(lay.buildMS, ms(o.setup))
			}
			o = t
		}
		if o.failure != "" {
			fmt.Fprintf(stderr, "seed-run %d (seed %d): %s\n", i, s, o.failure)
		}
		outs = append(outs, o)
	}

	failed := 0
	for _, o := range outs {
		if o.failure != "" {
			failed++
		}
	}
	rec := map[string]any{
		"seed": seed, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "seed_runs": len(outs), "trace": traced,
	}
	res := result{Correct: failed == 0, Attempted: len(outs), Failed: failed}
	if traced {
		res.Metrics = perLayer(&lay, tr.snapshot(), w.demes)
		return res, rec
	}
	m, sum := endToEnd(outs)
	rec["time_to_target_tail"] = map[string]any{"samples": sum.solved, "percentile": sum.tailPct, "blocks": sum.tailBlocks}
	rec["migration_latency_tail"] = map[string]any{"samples": sum.batches, "percentile": sum.batchTailPct, "blocks": sum.batchTailBlocks}
	res.Metrics = m
	return res, rec
}
