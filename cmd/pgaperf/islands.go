package main

import (
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/genome"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/persist"
	"pga/internal/rng"
	"pga/internal/spec"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// Island workload sizes: 4 demes × 50 on OneMax-512, ring, 2 migrants
// every 5 generations, synchronous parallel mode. Every seed reaches
// the optimum in about 90 generations; the cap only bounds a broken
// build.
const (
	islandBits     = 512
	islandDemes    = 4
	islandPop      = 50
	islandInterval = 5
	islandMigrants = 2
	islandMaxGens  = 2000
	islandOptimum  = islandBits
	replayEpochs   = 5 // migration epochs replayed per seed-run; the first warms caches and is not timed
)

// islandSpec is the run specification of the island workloads.
func islandSpec(seed uint64, supervised bool) spec.RunSpec {
	s := spec.RunSpec{
		Model:   spec.ModelIslands,
		Problem: spec.ProblemSpec{Name: "onemax", Size: islandBits},
		Engine:  spec.EngineSpec{Pop: islandPop},
		Islands: &spec.IslandSpec{
			Demes:     islandDemes,
			Topology:  spec.TopologySpec{Kind: "ring"},
			Migration: spec.MigrationSpec{Interval: islandInterval, Count: islandMigrants},
			Mode:      "parallel",
		},
		Budget: spec.BudgetSpec{Generations: islandMaxGens},
		Seed:   seed,
	}
	if supervised {
		s.Islands.Resilience = "default"
	}
	return s
}

// runIslands is one seed-run of onemax-islands (supervised=false) or
// onemax-islands-supervised. Untraced, it builds through spec.Build and
// runs through Built.Run, the public entry points. Traced, it wires the
// same runtime by hand so the engine, evaluator and migration seams can
// be wrapped; measure checks both produce identical evaluations.
func runIslands(seed uint64, supervised bool, tr *tracer, lay *layers) outcome {
	if tr != nil {
		return runIslandsTraced(seed, supervised, tr, lay)
	}
	var o outcome
	start := time.Now()
	b, err := spec.Build(islandSpec(seed, supervised))
	o.setup = time.Since(start)
	if err != nil {
		o.failf("spec.Build: %v", err)
		return o
	}
	initial := demeEvaluations(b.Islands.Engines())

	var mem memWindow
	mem.start()
	start = time.Now()
	rep := b.Run(spec.RunOpts{})
	o.wall = time.Since(start)
	mem.stop(&o)

	o.evaluations = rep.Evaluations
	o.evolved = rep.Evaluations - initial
	o.evals = rep.SolvedAtEval
	o.migrations, o.batches, o.restarts = rep.Migrations, rep.Migrations, rep.Restarts
	checkIslandRun(&o, rep.Solved, rep.Best, rep.Generations)
	if o.failure == "" {
		replayMigration(&o, b.Islands.Engines(), seed)
	}
	return o
}

// checkIslandRun applies the island output checks: the optimum was
// reached, the migration count matches the synchronous schedule, and no
// deme was restarted (no faults are injected).
func checkIslandRun(o *outcome, solved bool, best float64, gens int) {
	if !solved || best != islandOptimum {
		o.failf("best %v at stop, want %d", best, islandOptimum)
	}
	if want := int64(islandDemes * (gens / islandInterval)); o.migrations != want {
		o.failf("%d migrant batches in %d generations, want %d", o.migrations, gens, want)
	}
	if o.restarts != 0 {
		o.failf("%d deme restarts in a fault-free run", o.restarts)
	}
}

// demeEvaluations sums the deme engines' evaluation counters.
func demeEvaluations(engines []ga.Engine) int64 {
	var n int64
	for _, e := range engines {
		n += e.Evaluations()
	}
	return n
}

// replayMigration times the in-process migration path on the finished
// run's demes: each batch is picked, cloned and integrated along its
// ring link exactly as the synchronous runner does (migration.Policy's
// default SelectBest and ReplaceWorst), and checked to arrive intact.
// The synchronous runner gives no seam to time a batch inside the run.
func replayMigration(o *outcome, engines []ga.Engine, seed uint64) {
	r := rng.New(seed)
	sel, rep := migration.SelectBest{}, migration.ReplaceWorst{}
	for epoch := 0; epoch < replayEpochs; epoch++ {
		for i, e := range engines {
			dst := engines[(i+1)%len(engines)].Population()
			start := time.Now()
			out := sel.Pick(e.Population(), core.Maximize, islandMigrants, r)
			batch := migration.CloneBatch(out)
			rep.Integrate(dst, core.Maximize, batch, r)
			if lat := time.Since(start); epoch > 0 {
				o.latencies = append(o.latencies, lat)
			}
			o.sent++
			if integratedIntact(dst, out, batch) {
				o.delivered++
			} else {
				o.failf("replayed migrant batch %d→%d did not arrive intact", i, (i+1)%len(engines))
			}
		}
	}
}

// integratedIntact reports whether every migrant of batch sits in dst
// with the genes and fitness of its original.
func integratedIntact(dst *core.Population, orig, batch []*core.Individual) bool {
	if len(batch) != len(orig) {
		return false
	}
	for k, m := range batch {
		found := false
		for _, ind := range dst.Members {
			if ind == m {
				found = true
				break
			}
		}
		if !found || !sameIndividual(orig[k], m) {
			return false
		}
	}
	return true
}

// sameIndividual compares two bit-string individuals gene for gene.
func sameIndividual(a, b *core.Individual) bool {
	x, okA := a.Genome.(*genome.BitString)
	y, okB := b.Genome.(*genome.BitString)
	return okA && okB && x.Equal(y) && a.Fitness == b.Fitness && a.Evaluated == b.Evaluated
}

// runIslandsTraced is the traced seed-run: the spec's runtime wired by
// hand with every deme's engine and evaluator, and the migration
// selector and replacer, wrapped by span recorders.
func runIslandsTraced(seed uint64, supervised bool, tr *tracer, lay *layers) outcome {
	var o outcome
	prob, serr := islandSpec(seed, supervised).Problem.Instance(seed)
	if serr != nil {
		o.failf("problem: %v", serr)
		return o
	}
	cfg := island.Config{
		Topology: topology.Ring(islandDemes),
		Policy: migration.Policy{
			Interval: islandInterval,
			Count:    islandMigrants,
			Sync:     true,
			Select:   tracedSelector{migration.SelectBest{}, tr},
			Replace:  tracedReplacer{migration.ReplaceWorst{}, tr},
		},
		NewEngine: func(_ int, r *rng.Source) ga.Engine {
			ev := newTracedEvaluator(&core.SerialEvaluator{}, tr)
			e := ga.NewGenerational(ga.Config{
				Problem:   prob,
				PopSize:   islandPop,
				Crossover: operators.Uniform{},
				Mutator:   operators.BitFlip{},
				Evaluator: ev,
				RNG:       r,
			})
			return &tracedEngine{Engine: e, ev: ev}
		},
		Seed: seed,
	}
	if supervised {
		cfg.Resilience = &supervise.Config{}
	}
	start := time.Now()
	m := island.New(cfg)
	o.setup = time.Since(start)
	initial := demeEvaluations(m.Engines())

	start = time.Now()
	res := m.RunParallel(islandMaxGens, false)
	o.wall = time.Since(start)

	o.evaluations = res.Evaluations
	o.evolved = res.Evaluations - initial
	o.evals = res.SolvedAtEval
	o.migrations, o.batches, o.restarts = res.Migrations, res.Migrations, res.Restarts
	checkIslandRun(&o, res.Solved, res.BestFitness, res.Generations)

	lay.runWalls = append(lay.runWalls, o.wall)
	lay.evaluations = append(lay.evaluations, float64(res.Evaluations))
	lay.migrations = append(lay.migrations, float64(res.Migrations))
	lay.restarts += res.Restarts
	replayCheckpoints(&o, m.Engines(), res.Generations, lay)
	return o
}

// replayCheckpoints times what the supervisor does at each checkpoint
// of a deme — persist.Capture of its population plus Marshal — on the
// finished run's demes.
func replayCheckpoints(o *outcome, engines []ga.Engine, gen int, lay *layers) {
	r := rng.New(0)
	for i, e := range engines {
		start := time.Now()
		cp, err := persist.Capture(e.Population(), r, gen, e.Evaluations())
		var data []byte
		if err == nil {
			data, err = cp.Marshal()
		}
		if err != nil {
			o.failf("checkpoint of deme %d: %v", i, err)
			return
		}
		lay.captureMS = append(lay.captureMS, ms(time.Since(start)))
		lay.checkpointBytes = append(lay.checkpointBytes, float64(len(data)))
	}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
