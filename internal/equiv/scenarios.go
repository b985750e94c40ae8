// Package equiv pins the seeded evolution trajectories of every engine
// family as golden testdata. The zero-allocation hot-path rework (double
// buffering, in-place operators, per-engine scratch) is a pure
// mechanical-sympathy change: for a given seed it must consume the exact
// same RNG draws and produce bit-for-bit identical best-fitness traces.
// TestGoldenTraces is the proof. Each scenario names the operators it
// exercises, and the tests hold that list against the operator registry
// in both directions: every listed operator is registered, and every
// registered operator is listed somewhere except the pinned exceptions.
package equiv

import (
	"pga/internal/cellular"
	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/island"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
)

// Trace is one scenario's recorded trajectory: the per-generation global
// best fitness plus the final evaluation count. Fitness values are
// stored as float64 in JSON, which round-trips exactly, so comparison is
// bit-for-bit.
type Trace struct {
	Best        []float64 `json:"best"`
	Evaluations int64     `json:"evaluations"`
}

// Scenario is one pinned configuration: a stable golden-file key, the
// operator type names its trajectory exercises (the coverage evidence
// TestScenariosPinOperators checks), and the runner.
type Scenario struct {
	Name string
	Ops  []string
	Run  func() Trace
}

// gens is the pinned trajectory length of every scenario.
const gens = 20

// engineTrace runs eng for gens steps recording the best fitness after
// every step (including the initial population at index 0).
func engineTrace(eng ga.Engine) Trace {
	dir := eng.Problem().Direction()
	tr := Trace{Best: make([]float64, 0, gens+1)}
	tr.Best = append(tr.Best, eng.Population().BestFitness(dir))
	for g := 0; g < gens; g++ {
		eng.Step()
		tr.Best = append(tr.Best, eng.Population().BestFitness(dir))
	}
	tr.Evaluations = eng.Evaluations()
	return tr
}

// islandTrace runs an island model and converts its Trace to a trace.
func islandTrace(res *island.Result) Trace {
	tr := Trace{Best: make([]float64, 0, len(res.Trace))}
	for _, p := range res.Trace {
		tr.Best = append(tr.Best, p.Best)
	}
	tr.Evaluations = res.Evaluations
	return tr
}

// opNames renders operator values to their registry type names.
func opNames(ops ...any) []string {
	out := make([]string, 0, len(ops))
	for _, op := range ops {
		out = append(out, operators.OperatorTypeName(op))
	}
	return out
}

// withKPoint appends "KPoint" to a scenario's operator list: OnePoint
// and TwoPoint delegate their Cross/CrossInto to KPoint, so their
// trajectories exercise the KPoint pair too.
func withKPoint(ops []string) []string { return append(ops, "KPoint") }

// Scenarios enumerates every engine family and operator combination
// whose trajectory is pinned. Names are stable keys in the golden file.
func Scenarios() []Scenario {
	qap := problems.NewQAP(12, 7)
	return []Scenario{
		// Generational engine across representations and operators.
		{
			Name: "generational/onemax-1point-tournament",
			Ops:  withKPoint(opNames(operators.Tournament{}, operators.OnePoint{}, operators.BitFlip{})),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.OnePoint{}, Mutator: operators.BitFlip{},
					RNG: rng.New(11),
				}))
			},
		},
		{
			Name: "generational/onemax-uniform-gap-elitism",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 41, // odd: exercises the discarded-offspring path
					Selector:  operators.Tournament{K: 3},
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					GenGap: 0.5, Elitism: 4,
					RNG: rng.New(12),
				}))
			},
		},
		{
			Name: "generational/onemax-2point-roulette",
			Ops:  withKPoint(opNames(operators.Roulette{}, operators.TwoPoint{}, operators.BitFlip{})),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.OneMax{N: 48}, PopSize: 30,
					Selector:  operators.Roulette{},
					Crossover: operators.TwoPoint{}, Mutator: operators.BitFlip{},
					RNG: rng.New(13),
				}))
			},
		},
		{
			Name: "generational/sphere-sbx-polynomial",
			Ops:  opNames(operators.Tournament{}, operators.SBX{}, operators.Polynomial{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.Sphere(8), PopSize: 30,
					Selector:  operators.Tournament{K: 3},
					Crossover: operators.SBX{}, Mutator: operators.Polynomial{},
					RNG: rng.New(14),
				}))
			},
		},
		{
			Name: "generational/sphere-blx-gauss-rank",
			Ops:  opNames(operators.LinearRank{}, operators.BLX{}, operators.Gaussian{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.Sphere(6), PopSize: 24,
					Selector:  operators.LinearRank{},
					Crossover: operators.BLX{}, Mutator: operators.Gaussian{},
					RNG: rng.New(15),
				}))
			},
		},
		{
			Name: "generational/rastrigin-arith-reset-trunc",
			Ops:  opNames(operators.Truncation{}, operators.Arithmetic{}, operators.UniformReset{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.Rastrigin(6), PopSize: 24,
					Selector:  operators.Truncation{},
					Crossover: operators.Arithmetic{}, Mutator: operators.UniformReset{},
					RNG: rng.New(16),
				}))
			},
		},
		{
			Name: "generational/qap-ox-inversion",
			Ops:  opNames(operators.Tournament{}, operators.OX{}, operators.Inversion{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: qap, PopSize: 30,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.OX{}, Mutator: operators.Inversion{},
					RNG: rng.New(17),
				}))
			},
		},
		{
			Name: "generational/qap-pmx-swap",
			Ops:  opNames(operators.Tournament{}, operators.PMX{}, operators.Swap{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: qap, PopSize: 30,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.PMX{}, Mutator: operators.Swap{},
					RNG: rng.New(18),
				}))
			},
		},
		{
			Name: "generational/qap-cx-scramble",
			Ops:  opNames(operators.Tournament{}, operators.CX{}, operators.Scramble{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: qap, PopSize: 30,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.CX{}, Mutator: operators.Scramble{},
					RNG: rng.New(19),
				}))
			},
		},
		{
			Name: "generational/qap-erx-insertion",
			Ops:  opNames(operators.Tournament{}, operators.ERX{}, operators.Insertion{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: qap, PopSize: 20,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.ERX{}, Mutator: operators.Insertion{},
					RNG: rng.New(20),
				}))
			},
		},
		// Pins the in-place ERX path (PR 4) under rank selection, whose
		// scratch-based ranking shares the same Scratch as the ERX
		// adjacency table.
		{
			Name: "generational/qap-erx-rank-swap",
			Ops:  opNames(operators.LinearRank{}, operators.ERX{}, operators.Swap{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: qap, PopSize: 24,
					Selector:  operators.LinearRank{},
					Crossover: operators.ERX{}, Mutator: operators.Swap{},
					RNG: rng.New(25),
				}))
			},
		},

		// Word-wise operators on the packed representation. These draw one
		// uint64 per 64-bit word rather than one decision per bit, so they
		// have their own pinned trajectories (intentionally different RNG
		// consumption from the bit-wise operators above).
		{
			Name: "generational/onemax-uniformword-blockflip",
			Ops:  opNames(operators.Tournament{}, operators.UniformWord{}, operators.BlockFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.OneMax{N: 96}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.UniformWord{}, Mutator: operators.BlockFlip{},
					RNG: rng.New(51),
				}))
			},
		},
		{
			Name: "generational/onemax-kpointword-blockflip",
			Ops:  opNames(operators.Tournament{}, operators.KPointWord{}, operators.BlockFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewGenerational(ga.Config{
					Problem: problems.OneMax{N: 100}, PopSize: 40, // N % 64 != 0: tail-word path
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.KPointWord{K: 2}, Mutator: operators.BlockFlip{K: 5},
					RNG: rng.New(52),
				}))
			},
		},
		{
			Name: "steadystate/royalroad-uniformword-blockflip",
			Ops:  opNames(operators.Tournament{}, operators.UniformWord{}, operators.BlockFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewSteadyState(ga.Config{
					Problem: problems.RoyalRoad{Blocks: 8, K: 8}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.UniformWord{}, Mutator: operators.BlockFlip{},
					RNG: rng.New(53),
				}, true))
			},
		},
		{
			Name: "cellular/onemax-kpointword-sync-L5",
			Ops:  opNames(operators.KPointWord{}, operators.BlockFlip{}),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.OneMax{N: 72}, Rows: 6, Cols: 6,
					Crossover: operators.KPointWord{K: 1}, Mutator: operators.BlockFlip{},
					Update: cellular.Synchronous, Neighborhood: cellular.VonNeumann,
					RNG: rng.New(54),
				}))
			},
		},

		// Steady-state engine, both replacement policies.
		{
			Name: "steadystate/onemax-worst",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewSteadyState(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					RNG: rng.New(21),
				}, true))
			},
		},
		{
			Name: "steadystate/onemax-random",
			Ops:  withKPoint(opNames(operators.Roulette{}, operators.OnePoint{}, operators.BitFlip{})),
			Run: func() Trace {
				return engineTrace(ga.NewSteadyState(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 40,
					Selector:  operators.Roulette{},
					Crossover: operators.OnePoint{}, Mutator: operators.BitFlip{},
					RNG: rng.New(22),
				}, false))
			},
		},
		{
			Name: "steadystate/sphere-worst",
			Ops:  opNames(operators.Tournament{}, operators.SBX{}, operators.Polynomial{}),
			Run: func() Trace {
				return engineTrace(ga.NewSteadyState(ga.Config{
					Problem: problems.Sphere(8), PopSize: 30,
					Selector:  operators.Tournament{K: 3},
					Crossover: operators.SBX{}, Mutator: operators.Polynomial{},
					RNG: rng.New(23),
				}, true))
			},
		},

		// Shared-memory parallel-reproduction engine: the trace must be
		// identical for any worker count with the same seed split, so pin
		// two counts.
		{
			Name: "parallel/onemax-4workers",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewParallelGenerational(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					RNG: rng.New(24),
				}, 4))
			},
		},
		{
			Name: "parallel/onemax-1worker",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(ga.NewParallelGenerational(ga.Config{
					Problem: problems.OneMax{N: 64}, PopSize: 40,
					Selector:  operators.Tournament{K: 2},
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					RNG: rng.New(24),
				}, 1))
			},
		},

		// Cellular engine: every update policy, all neighbourhoods.
		{
			Name: "cellular/onemax-sync-L5",
			Ops:  withKPoint(opNames(operators.OnePoint{}, operators.BitFlip{})),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.OneMax{N: 48}, Rows: 6, Cols: 6,
					Crossover: operators.OnePoint{}, Mutator: operators.BitFlip{},
					Update: cellular.Synchronous, Neighborhood: cellular.VonNeumann,
					RNG: rng.New(31),
				}))
			},
		},
		{
			Name: "cellular/onemax-ls-C9",
			Ops:  opNames(operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.OneMax{N: 48}, Rows: 6, Cols: 6,
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					Update: cellular.LineSweep, Neighborhood: cellular.Moore,
					RNG: rng.New(32),
				}))
			},
		},
		{
			Name: "cellular/onemax-frs-L9",
			Ops:  withKPoint(opNames(operators.TwoPoint{}, operators.BitFlip{})),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.OneMax{N: 48}, Rows: 6, Cols: 6,
					Crossover: operators.TwoPoint{}, Mutator: operators.BitFlip{},
					Update: cellular.FixedRandomSweep, Neighborhood: cellular.Linear9,
					RNG: rng.New(33),
				}))
			},
		},
		{
			Name: "cellular/onemax-nrs-L5",
			Ops:  opNames(operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.OneMax{N: 48}, Rows: 6, Cols: 6,
					Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
					Update: cellular.NewRandomSweep, Neighborhood: cellular.VonNeumann,
					RNG: rng.New(34),
				}))
			},
		},
		{
			Name: "cellular/sphere-uc-L5",
			Ops:  opNames(operators.BLX{}, operators.Gaussian{}),
			Run: func() Trace {
				return engineTrace(cellular.New(cellular.Config{
					Problem: problems.Sphere(6), Rows: 6, Cols: 6,
					Crossover: operators.BLX{}, Mutator: operators.Gaussian{},
					Update: cellular.UniformChoice, Neighborhood: cellular.VonNeumann,
					RNG: rng.New(35),
				}))
			},
		},

		// Island model: lockstep-sequential and sync-parallel execution of
		// the same configuration must both replay (each mode is pinned
		// separately — their RNG usage is intentionally not compared).
		{
			Name: "islands/sequential-ring-generational",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				m := island.New(island.Config{
					Topology: topology.Ring(4),
					Policy:   migration.Policy{Interval: 5, Count: 2},
					NewEngine: func(_ int, r *rng.Source) ga.Engine {
						return ga.NewGenerational(ga.Config{
							Problem: problems.OneMax{N: 64}, PopSize: 20,
							Selector:  operators.Tournament{K: 2},
							Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
							RNG: r,
						})
					},
					Seed: 41,
				})
				return islandTrace(m.RunSequential(core.MaxGenerations(gens), true))
			},
		},
		{
			Name: "islands/syncparallel-ring-generational",
			Ops:  opNames(operators.Tournament{}, operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				m := island.New(island.Config{
					Topology: topology.Ring(4),
					Policy:   migration.Policy{Interval: 5, Count: 2, Sync: true},
					NewEngine: func(_ int, r *rng.Source) ga.Engine {
						return ga.NewGenerational(ga.Config{
							Problem: problems.OneMax{N: 64}, PopSize: 20,
							Selector:  operators.Tournament{K: 2},
							Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
							RNG: r,
						})
					},
					Seed: 41,
				})
				return islandTrace(m.RunParallel(gens, true))
			},
		},
		{
			Name: "islands/sequential-biring-steadystate",
			Ops:  opNames(operators.Tournament{}, operators.SBX{}, operators.Polynomial{}),
			Run: func() Trace {
				m := island.New(island.Config{
					Topology: topology.BiRing(3),
					Policy:   migration.Policy{Interval: 4, Count: 1},
					NewEngine: func(_ int, r *rng.Source) ga.Engine {
						return ga.NewSteadyState(ga.Config{
							Problem: problems.Sphere(6), PopSize: 16,
							Selector:  operators.Tournament{K: 2},
							Crossover: operators.SBX{}, Mutator: operators.Polynomial{},
							RNG: r,
						}, true)
					},
					Seed: 42,
				})
				return islandTrace(m.RunSequential(core.MaxGenerations(gens), true))
			},
		},
		{
			Name: "islands/sequential-ring-cellular",
			Ops:  opNames(operators.Uniform{}, operators.BitFlip{}),
			Run: func() Trace {
				m := island.New(island.Config{
					Topology: topology.Ring(3),
					Policy:   migration.Policy{Interval: 5, Count: 2},
					NewEngine: func(_ int, r *rng.Source) ga.Engine {
						return cellular.New(cellular.Config{
							Problem: problems.OneMax{N: 48}, Rows: 4, Cols: 4,
							Crossover: operators.Uniform{}, Mutator: operators.BitFlip{},
							Update: cellular.LineSweep,
							RNG:    r,
						})
					},
					Seed: 43,
				})
				return islandTrace(m.RunSequential(core.MaxGenerations(gens), true))
			},
		},
	}
}
