package main

import (
	"time"

	"pga/internal/apps"
	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/masterslave"
	"pga/internal/operators"
	"pga/internal/rng"
)

// Farm workload sizes: image registration on 32×32 images, a
// generational GA of 64 with the E13 real-valued pairing (BLX-α,
// Gaussian p=0.3 σ=0.3), evaluated by a master–slave farm of two
// workers for a fixed budget of generations.
//
// The budget replaces a stop at the ground truth's fitness: over 1500
// seeds that target was reached in a median of 6 generations but 1% of
// seeds never reached it in 2000 (they sit in an optimum a hair below
// it), while after 30 generations every seed was within 2e-4 of it.
const (
	farmImage   = 32
	farmPop     = 64
	farmWorkers = 2
	farmGens    = 30
	// farmFitnessSlack is how far below the ground truth's fitness the
	// best may end: five times the worst shortfall seen over 1500 seeds.
	farmFitnessSlack = 1e-3
	// farmTolerance bounds the transform error (pixels) at the stop.
	// Over 1500 seeds the largest error after farmGens generations was
	// 2.35 px (median 0.3): with out-of-frame samples reading 0 the
	// fitness optimum sits off the ground truth on some instances.
	farmTolerance = 3.0
)

// farmProbe times each Farm.EvaluateAll — one dispatch round of a
// generation's pending genomes to the workers and back, the farm's
// unit of communication — and checks that every dispatched task came
// back evaluated.
type farmProbe struct {
	*masterslave.Farm
	o *outcome
}

// EvaluateAll implements core.Evaluator.
func (p farmProbe) EvaluateAll(prob core.Problem, pop *core.Population) {
	start := time.Now()
	p.Farm.EvaluateAll(prob, pop)
	p.o.latencies = append(p.o.latencies, time.Since(start))
	p.o.sent++
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			p.o.failf("farm returned a generation with unevaluated members")
			return
		}
	}
	p.o.delivered++
}

// runFarm is one seed-run of imagereg-farm: set up the instance and
// the farm-evaluated engine, run the generation budget and check the
// registration. Untraced, the farm is wrapped by the dispatch probe.
// Traced, it is wrapped by a span-recording evaluator instead, which
// also keeps the genomes sent so their serial evaluation can be
// replayed afterwards, and the engine by a span-recording engine.
func runFarm(seed uint64, tr *tracer, lay *layers) outcome {
	var o outcome
	start := time.Now()
	ir := apps.NewImageRegistration(farmImage, seed)
	truth := ir.Evaluate(truthGenome(ir))
	farm := masterslave.NewFarm(seed, masterslave.Uniform(farmWorkers))
	var ev core.Evaluator = farmProbe{Farm: farm, o: &o}
	var tev *tracedEvaluator
	if tr != nil {
		tev = newTracedEvaluator(farm, tr)
		tev.keep = true
		ev = tev
	}
	var eng ga.Engine = ga.NewGenerational(ga.Config{
		Problem:   ir,
		PopSize:   farmPop,
		Crossover: operators.BLX{},
		Mutator:   operators.Gaussian{P: 0.3, Sigma: 0.3},
		Evaluator: ev,
		RNG:       rng.New(seed),
	})
	if tev != nil {
		eng = &tracedEngine{Engine: eng, ev: tev}
	}
	o.setup = time.Since(start)
	// Setup's evaluation of the initial population is not a dispatch
	// round of the evolution.
	o.latencies, o.sent, o.delivered = nil, 0, 0
	initial := farm.Evaluations()

	var mem memWindow
	mem.start()
	start = time.Now()
	res := ga.Run(eng, ga.RunOptions{Stop: core.MaxGenerations(farmGens)})
	o.wall = time.Since(start)
	mem.stop(&o)

	o.evaluations = res.Evaluations
	o.evolved = res.Evaluations - initial
	o.evals = res.Evaluations
	o.batches = o.sent
	if res.BestFitness < truth-farmFitnessSlack {
		o.failf("best fitness %v at the stop, ground truth's %v", res.BestFitness, truth)
	}
	if f := ir.Evaluate(res.Best.Genome); f != res.BestFitness {
		o.failf("farm fitness %v of the best differs from its serial evaluation %v", res.BestFitness, f)
	}
	if e := ir.TransformError(res.Best.Genome); e > farmTolerance {
		o.failf("transform error %.3f px at the stop, tolerance %.1f", e, farmTolerance)
	}
	st := farm.Stats()
	if st.Failures != 0 {
		o.failf("%d failed farm attempts with fault-free workers", st.Failures)
	}
	if tr != nil {
		lay.runWalls = append(lay.runWalls, o.wall)
		lay.evaluations = append(lay.evaluations, float64(res.Evaluations))
		lay.failedAttempts += st.Failures
		if len(lay.tasks) == 0 {
			lay.tasks = make([]int64, len(st.TasksPerWorker))
		}
		for w, n := range st.TasksPerWorker {
			lay.tasks[w] += n
		}
		replaySerial(&o, ir, tev, lay)
	}
	return o
}

// truthGenome returns the instance's ground-truth transform as a genome.
func truthGenome(ir *apps.ImageRegistration) core.Genome {
	g := ir.NewGenome(rng.New(0)).(*genome.RealVector)
	t := ir.Truth()
	copy(g.Genes, t[:])
	return g
}

// replaySerial evaluates every genome the farm evaluated again, one
// after another on this goroutine: the serial cost the farm's workers
// shared, and a check that the farm returned the right fitness.
func replaySerial(o *outcome, ir *apps.ImageRegistration, keep *tracedEvaluator, lay *layers) {
	start := time.Now()
	for i, g := range keep.genomes {
		if ir.Evaluate(g) != keep.fitness[i] {
			o.failf("farm fitness of genome %d differs from its serial evaluation", i)
		}
	}
	lay.serial += time.Since(start)
	lay.serialEvals += int64(len(keep.genomes))
}
