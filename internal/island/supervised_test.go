package island

import (
	"runtime"
	"testing"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
)

// supervisedConfig returns a 4-deme ring OneMax config with supervision.
func supervisedConfig(sync bool, res *supervise.Config, plan *supervise.FaultPlan) Config {
	return Config{
		Topology:   topology.Ring(4),
		Policy:     migration.Policy{Interval: 5, Count: 2, Sync: sync, Buffer: 2},
		NewEngine:  onemaxEngines(48, 25),
		Seed:       3,
		Resilience: res,
		Faults:     plan,
	}
}

// TestSupervisedAcceptance is the PR's acceptance run: a seeded island
// run with an injected deme panic and an injected hang completes,
// reports the failures in its counters, and finds a solution no worse
// than the fault-free run with the same seed.
func TestSupervisedAcceptance(t *testing.T) {
	res := &supervise.Config{
		CheckpointEvery: 5,
		MaxRestarts:     4,
		Heartbeat:       40 * time.Millisecond,
		Backoff:         time.Millisecond,
	}
	clean := New(supervisedConfig(true, res, nil)).RunParallel(300, false)
	if !clean.Solved {
		t.Fatalf("fault-free supervised run failed: best=%v", clean.BestFitness)
	}
	if clean.Restarts != 0 || clean.PanicsRecovered != 0 || clean.HeartbeatTimeouts != 0 {
		t.Fatalf("fault-free run reported failures: %+v", clean)
	}

	plan := supervise.NewFaultPlan().
		PanicAt(1, 6).
		HangAt(2, 9, 250*time.Millisecond)
	faulty := New(supervisedConfig(true, res, plan)).RunParallel(300, false)
	if !faulty.Solved {
		t.Fatalf("faulty run did not complete: best=%v", faulty.BestFitness)
	}
	if faulty.Restarts < 1 {
		t.Fatalf("Restarts = %d, want >= 1", faulty.Restarts)
	}
	if faulty.HeartbeatTimeouts < 1 {
		t.Fatalf("HeartbeatTimeouts = %d, want >= 1", faulty.HeartbeatTimeouts)
	}
	if faulty.PanicsRecovered < 1 {
		t.Fatalf("PanicsRecovered = %d, want >= 1", faulty.PanicsRecovered)
	}
	if faulty.BestFitness < clean.BestFitness {
		t.Fatalf("faulty run found worse solution: %v < %v", faulty.BestFitness, clean.BestFitness)
	}
	if len(faulty.Failures) < 2 {
		t.Fatalf("failure log too short: %+v", faulty.Failures)
	}
	if len(faulty.DeadDemes) != 0 {
		t.Fatalf("transient faults killed demes: %v", faulty.DeadDemes)
	}
}

// TestSupervisedSyncMatchesUnsupervisedWhenFaultFree pins the zero-cost
// property on a ring and on the degenerate one-deme ring and two-deme
// bi-ring: with no faults and no heartbeat, the lockstep sequential run,
// the unsupervised sync-parallel run and the supervised sync-parallel
// run perform the identical computation, migrations included.
func TestSupervisedSyncMatchesUnsupervisedWhenFaultFree(t *testing.T) {
	for _, topo := range []topology.Topology{topology.Ring(3), topology.BiRing(2), topology.Ring(1)} {
		mk := func(res *supervise.Config) *Model {
			return New(Config{
				Topology:   topo,
				Policy:     migration.Policy{Interval: 4, Count: 1, Sync: true},
				NewEngine:  onemaxEngines(256, 16),
				Seed:       13,
				Resilience: res,
			})
		}
		seq := mk(nil).RunSequential(core.MaxGenerations(25), false)
		runs := map[string]*Result{
			"unsupervised": mk(nil).RunParallel(25, false),
			"supervised":   mk(&supervise.Config{}).RunParallel(25, false),
		}
		for name, r := range runs {
			if r.BestFitness != seq.BestFitness || r.Evaluations != seq.Evaluations || r.Migrations != seq.Migrations {
				t.Errorf("%s(%d): %s (%v, %d evals, %d migrations) != sequential (%v, %d evals, %d migrations)",
					topo.Name(), topo.Size(), name, r.BestFitness, r.Evaluations, r.Migrations,
					seq.BestFitness, seq.Evaluations, seq.Migrations)
			}
		}
	}
}

func TestSupervisedAsyncSolvesUnderPanics(t *testing.T) {
	res := &supervise.Config{CheckpointEvery: 3, MaxRestarts: 4, Backoff: time.Millisecond}
	// Async demes free-run and this must pass on a single-CPU box, where
	// one deme can solve the whole run before the others are scheduled at
	// all. Panicking every deme's very first step makes the injection
	// immune to scheduling skew: any deme that steps panics once, and the
	// restart backoff yields the processor to the rest.
	plan := supervise.NewFaultPlan().
		PanicAt(0, 1).PanicAt(1, 1).PanicAt(2, 1).PanicAt(3, 1)
	cfg := supervisedConfig(false, res, plan)
	cfg.NewEngine = onemaxEngines(96, 25)
	r := New(cfg).RunParallel(600, false)
	if !r.Solved {
		t.Fatalf("async supervised run failed: best=%v", r.BestFitness)
	}
	if r.PanicsRecovered < 2 || r.Restarts < 2 {
		t.Fatalf("panics=%d restarts=%d, want >= 2 each", r.PanicsRecovered, r.Restarts)
	}
}

// TestSupervisedDeadDemeIsRoutedAround exhausts one deme's restart
// budget and checks the run completes with the dead deme frozen at its
// checkpoint and healed out of the ring.
func TestSupervisedDeadDemeIsRoutedAround(t *testing.T) {
	res := &supervise.Config{
		CheckpointEvery: 5,
		MaxRestarts:     -1, // first failure kills the deme
		Backoff:         time.Millisecond,
	}
	plan := supervise.NewFaultPlan().PanicAt(1, 3)
	r := New(supervisedConfig(true, res, plan)).RunParallel(300, false)
	if !r.Solved {
		t.Fatalf("run with a dead deme failed: best=%v", r.BestFitness)
	}
	if len(r.DeadDemes) != 1 || r.DeadDemes[0] != 1 {
		t.Fatalf("DeadDemes = %v, want [1]", r.DeadDemes)
	}
	if len(r.PerDemeBest) != 4 {
		t.Fatalf("per-deme stats missing: %v", r.PerDemeBest)
	}
	// The dead deme froze at its generation-0 checkpoint: its best must
	// be a valid OneMax fitness, not the Direction.Worst sentinel.
	if r.PerDemeBest[1] < 0 || r.PerDemeBest[1] > 48 {
		t.Fatalf("dead deme best %v not a frozen checkpoint value", r.PerDemeBest[1])
	}
	last := r.Failures[len(r.Failures)-1]
	if last.Deme != 1 || last.Restarted {
		t.Fatalf("death event wrong: %+v", last)
	}
}

// TestSupervisedAsyncDeadLetter stalls a deme long enough for its
// neighbour's migrant batches to exhaust their retry budget, and checks
// the lost traffic is dead-lettered rather than silently dropped.
func TestSupervisedAsyncDeadLetter(t *testing.T) {
	res := &supervise.Config{
		CheckpointEvery: 5,
		MaxRestarts:     2,
		Heartbeat:       100 * time.Millisecond,
		Backoff:         time.Millisecond,
		MaxSendRetries:  2,
	}
	// Deme 1 wedges at generation 2 for well over the heartbeat; deme 0
	// keeps migrating into deme 1's undrained 1-slot inbox meanwhile.
	plan := supervise.NewFaultPlan().HangAt(1, 2, 300*time.Millisecond)
	m := New(Config{
		Topology:   topology.Ring(2),
		Policy:     migration.Policy{Interval: 1, Count: 1, Sync: false, Buffer: 1},
		NewEngine:  onemaxEngines(64, 10),
		Seed:       21,
		Resilience: res,
		Faults:     plan,
	})
	r := m.RunParallel(200, false)
	if r.HeartbeatTimeouts < 1 {
		t.Fatalf("HeartbeatTimeouts = %d, want >= 1", r.HeartbeatTimeouts)
	}
	if r.DeadLettered < 1 {
		t.Fatalf("DeadLettered = %d, want >= 1", r.DeadLettered)
	}
	if r.Generations == 0 || r.Evaluations == 0 {
		t.Fatalf("run did not progress: %+v", r)
	}
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (hung injected steps may outlive the run by their hang
// duration before exiting).
func waitForGoroutines(t *testing.T, baseline int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunParallelNoGoroutineLeak asserts the parallel runners strand no
// workers: sync, async, and supervised runs with an injected crash and
// an injected hang all return the process to its goroutine baseline.
func TestRunParallelNoGoroutineLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	// Plain sync and async runs.
	New(supervisedConfig(true, nil, nil)).RunParallel(60, false)
	waitForGoroutines(t, baseline, 3*time.Second)
	New(supervisedConfig(false, nil, nil)).RunParallel(60, false)
	waitForGoroutines(t, baseline, 3*time.Second)

	// Supervised run with a crash and a hang: the abandoned hung step
	// must unwind by itself once its stall ends.
	res := &supervise.Config{
		CheckpointEvery: 5,
		MaxRestarts:     3,
		Heartbeat:       30 * time.Millisecond,
		Backoff:         time.Millisecond,
	}
	plan := supervise.NewFaultPlan().PanicAt(0, 3).HangAt(3, 5, 150*time.Millisecond)
	New(supervisedConfig(true, res, plan)).RunParallel(80, false)
	waitForGoroutines(t, baseline, 3*time.Second)

	plan = supervise.NewFaultPlan().PanicAt(2, 4).HangAt(1, 6, 150*time.Millisecond)
	New(supervisedConfig(false, res, plan)).RunParallel(80, false)
	waitForGoroutines(t, baseline, 3*time.Second)
}

// TestSupervisedMixedEngines checks supervision restarts heterogeneous
// demes through the same NewEngine factory used at construction.
func TestSupervisedMixedEngines(t *testing.T) {
	res := &supervise.Config{CheckpointEvery: 3, MaxRestarts: 3, Backoff: time.Millisecond}
	plan := supervise.NewFaultPlan().PanicAt(1, 4).PanicAt(2, 5)
	m := New(Config{
		Topology: topology.Ring(4),
		Policy:   migration.Policy{Interval: 5, Count: 1, Sync: true},
		NewEngine: func(deme int, r *rng.Source) ga.Engine {
			cfg := ga.Config{
				Problem:   problems.OneMax{N: 32},
				PopSize:   16,
				Crossover: operators.Uniform{},
				Mutator:   operators.BitFlip{},
				RNG:       r,
			}
			if deme%2 == 0 {
				return ga.NewGenerational(cfg)
			}
			return ga.NewSteadyState(cfg, true)
		},
		Seed:       10,
		Resilience: res,
		Faults:     plan,
	})
	r := m.RunParallel(200, false)
	if !r.Solved {
		t.Fatalf("mixed-engine supervised run failed: best=%v", r.BestFitness)
	}
	if r.Restarts < 2 {
		t.Fatalf("Restarts = %d, want >= 2", r.Restarts)
	}
}

// TestSupervisedTraceMonotone checks the sync supervised trace keeps the
// elitist global-best monotonicity even across restarts (a restored
// checkpoint can only roll a single deme back, never the global best).
func TestSupervisedTraceMonotone(t *testing.T) {
	res := &supervise.Config{CheckpointEvery: 4, MaxRestarts: 3, Backoff: time.Millisecond}
	plan := supervise.NewFaultPlan().PanicAt(0, 5).PanicAt(3, 11)
	m := New(supervisedConfig(true, res, plan))
	r := m.RunParallel(40, true)
	if len(r.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for i := 1; i < len(r.Trace); i++ {
		if r.Trace[i].Best < r.Trace[i-1].Best {
			t.Fatalf("global best regressed at %d: %v -> %v", i, r.Trace[i-1].Best, r.Trace[i].Best)
		}
	}
	if r.PanicsRecovered < 1 {
		t.Fatalf("PanicsRecovered = %d", r.PanicsRecovered)
	}
}
