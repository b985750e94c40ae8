package supervise

import (
	"sort"
	"testing"
	"time"

	"pga/internal/ga"
	"pga/internal/operators"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/topology"
)

// testFactory returns a small OneMax engine factory.
func testFactory(bits, pop int) func(int, *rng.Source) ga.Engine {
	return func(deme int, r *rng.Source) ga.Engine {
		return ga.NewGenerational(ga.Config{
			Problem:   problems.OneMax{N: bits},
			PopSize:   pop,
			Crossover: operators.Uniform{},
			Mutator:   operators.BitFlip{},
			RNG:       r,
		})
	}
}

// newTestSupervisor builds a supervisor over a ring with attached deme
// streams and engines, returning both.
func newTestSupervisor(t *testing.T, cfg Config, plan *FaultPlan, demes int) (*Supervisor, []ga.Engine) {
	t.Helper()
	factory := testFactory(16, 8)
	master := rng.New(99)
	s := New(cfg, plan, topology.Ring(demes), factory, master.Split())
	engines := make([]ga.Engine, demes)
	for i := 0; i < demes; i++ {
		src := master.Split()
		s.Attach(i, src)
		engines[i] = factory(i, src)
	}
	return s, engines
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.CheckpointEvery != 5 || c.MaxRestarts != 3 || c.Backoff != time.Millisecond || c.MaxSendRetries != 3 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	// Explicit values survive.
	c = Config{CheckpointEvery: 2, MaxRestarts: 7}.WithDefaults()
	if c.CheckpointEvery != 2 || c.MaxRestarts != 7 {
		t.Fatalf("explicit values overridden: %+v", c)
	}
}

func TestFaultPlanTakeConsumesBudget(t *testing.T) {
	p := NewFaultPlan().PanicTimes(2, 5, 2)
	if f := p.take(2, 4); f != nil {
		t.Fatal("fault fired before its generation")
	}
	if f := p.take(1, 5); f != nil {
		t.Fatal("fault fired for the wrong deme")
	}
	if f := p.take(2, 5); f == nil || f.Kind != FaultPanic {
		t.Fatal("first trigger missing")
	}
	// Replays at or after Gen keep firing while the budget lasts.
	if f := p.take(2, 7); f == nil {
		t.Fatal("second trigger missing")
	}
	if f := p.take(2, 8); f != nil {
		t.Fatal("fault fired beyond its Times budget")
	}
}

func TestFaultPlanNilSafe(t *testing.T) {
	var p *FaultPlan
	if p.Len() != 0 {
		t.Fatal("nil plan has faults")
	}
	p.apply(0, 1) // must not panic
}

// stepCounter counts the Step calls reaching a wrapped engine.
type stepCounter struct {
	ga.Engine
	steps int
}

func (c *stepCounter) Step() { c.steps++; c.Engine.Step() }

// TestNilSupervisorIsNoOp pins the unsupervised runtime: a nil
// supervisor steps the engine once per RunStep, never checkpoints and
// ignores dead letters.
func TestNilSupervisorIsNoOp(t *testing.T) {
	var s *Supervisor
	e := &stepCounter{Engine: testFactory(16, 6)(0, rng.New(1))}
	if out := s.RunStep(0, 1, e); out.Status != StepOK || out.Err != nil {
		t.Fatalf("RunStep = %+v, want StepOK", out)
	}
	if e.steps != 1 {
		t.Fatalf("RunStep stepped the engine %d times, want 1", e.steps)
	}
	for gen := 0; gen <= 100; gen++ {
		if s.CheckpointDue(gen) {
			t.Fatalf("CheckpointDue(%d) = true on a nil supervisor", gen)
		}
	}
	s.DeadLetter(3) // must not panic
}

func TestRouterHealsRingAroundDeadDeme(t *testing.T) {
	r := NewRouter(topology.Ring(4)) // 0→1→2→3→0
	r.MarkDead(2)
	if got := r.Neighbors(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("deme 1 should route around dead 2 to 3, got %v", got)
	}
	if got := r.Neighbors(2); len(got) != 0 {
		t.Fatalf("dead deme still has neighbours: %v", got)
	}
	if r.Alive(2) || !r.Alive(1) || r.AliveCount() != 3 {
		t.Fatal("liveness bookkeeping wrong")
	}
	if d := r.Dead(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("Dead() = %v", d)
	}
}

func TestRouterHealsThroughDeadRegions(t *testing.T) {
	// Ring of 5 with two adjacent deaths: 0→1→2→3→4→0, kill 1 and 2;
	// 0 must reach 3 through the dead region.
	r := NewRouter(topology.Ring(5))
	r.MarkDead(1)
	r.MarkDead(2)
	if got := r.Neighbors(0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("deme 0 should heal through 1,2 to 3, got %v", got)
	}
}

func TestRouterStarHubDeath(t *testing.T) {
	// Star(4): hub 0 ↔ leaves 1..3. Killing the hub must reconnect the
	// leaves to each other (each leaf's only link was through 0).
	r := NewRouter(topology.Star(4))
	r.MarkDead(0)
	for leaf := 1; leaf <= 3; leaf++ {
		got := append([]int(nil), r.Neighbors(leaf)...)
		sort.Ints(got)
		want := []int{}
		for j := 1; j <= 3; j++ {
			if j != leaf {
				want = append(want, j)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("leaf %d healed neighbours %v, want %v", leaf, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("leaf %d healed neighbours %v, want %v", leaf, got, want)
			}
		}
	}
}

func TestRouterImplementsTopology(t *testing.T) {
	var _ topology.Topology = NewRouter(topology.Ring(3))
	r := NewRouter(topology.Ring(3))
	if r.Size() != 3 || r.Name() != "routed:ring" {
		t.Fatalf("Size/Name wrong: %d %q", r.Size(), r.Name())
	}
}

func TestRunStepRecoversPanic(t *testing.T) {
	plan := NewFaultPlan().PanicAt(0, 1)
	s, engines := newTestSupervisor(t, Config{Backoff: time.Microsecond}, plan, 2)
	out := s.RunStep(0, 1, engines[0])
	if out.Status != StepPanicked || out.Err == nil {
		t.Fatalf("panic not recovered: %+v", out)
	}
	// Unscripted demes step normally.
	if out := s.RunStep(1, 1, engines[1]); out.Status != StepOK {
		t.Fatalf("healthy step failed: %+v", out)
	}
}

func TestRunStepTimesOutOnHang(t *testing.T) {
	plan := NewFaultPlan().HangAt(0, 1, 200*time.Millisecond)
	s, engines := newTestSupervisor(t, Config{Heartbeat: 10 * time.Millisecond, Backoff: time.Microsecond}, plan, 1)
	startAt := time.Now()
	out := s.RunStep(0, 1, engines[0])
	if out.Status != StepTimedOut {
		t.Fatalf("hang not detected: %+v", out)
	}
	if time.Since(startAt) > 150*time.Millisecond {
		t.Fatal("RunStep waited for the hang instead of abandoning it")
	}
}

func TestRestartRestoresCheckpointOnFreshStream(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 2, Backoff: time.Microsecond}, nil, 1)
	e := engines[0]
	for i := 0; i < 3; i++ {
		e.Step()
	}
	wantBest := e.Population().BestFitness(problems.OneMax{N: 16}.Direction())
	if err := s.Checkpoint(0, e.Population(), 3, e.Evaluations()); err != nil {
		t.Fatal(err)
	}
	e.Step() // work that will be lost

	eng, frozen, ok := s.Restart(0, 4, FailurePanic, "boom")
	if !ok || eng == nil || frozen != nil {
		t.Fatalf("restart failed: ok=%v eng=%v frozen=%v", ok, eng, frozen)
	}
	pop := eng.Population()
	if pop.Len() != 8 {
		t.Fatalf("restored population size %d", pop.Len())
	}
	for _, ind := range pop.Members {
		if !ind.Evaluated {
			t.Fatal("restored member not evaluated")
		}
	}
	if got := pop.BestFitness(problems.OneMax{N: 16}.Direction()); got != wantBest {
		t.Fatalf("restored best %v != checkpointed best %v", got, wantBest)
	}
	if s.Restarts() != 1 || s.PanicsRecovered() != 1 {
		t.Fatalf("counters: restarts=%d panics=%d", s.Restarts(), s.PanicsRecovered())
	}
	if s.ResumeGen(0) != 3 {
		t.Fatalf("ResumeGen = %d", s.ResumeGen(0))
	}
	fails := s.Failures()
	if len(fails) != 1 || !fails[0].Restarted || fails[0].Kind != FailurePanic || fails[0].Gen != 4 {
		t.Fatalf("failure log wrong: %+v", fails)
	}
}

func TestRestartBudgetExhaustionKillsDeme(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 1, Backoff: time.Microsecond}, nil, 2)
	e := engines[0]
	if err := s.Checkpoint(0, e.Population(), 0, e.Evaluations()); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Restart(0, 1, FailurePanic, "first"); !ok {
		t.Fatal("first restart should succeed")
	}
	eng, frozen, ok := s.Restart(0, 2, FailureTimeout, nil)
	if ok || eng != nil {
		t.Fatal("second restart should exhaust the budget")
	}
	if frozen == nil || frozen.Len() != 8 {
		t.Fatalf("dead deme should freeze its checkpoint, got %v", frozen)
	}
	if s.Router().Alive(0) {
		t.Fatal("dead deme not marked in router")
	}
	if s.HeartbeatTimeouts() != 1 {
		t.Fatalf("timeouts=%d", s.HeartbeatTimeouts())
	}
	fails := s.Failures()
	if len(fails) != 2 || fails[1].Restarted {
		t.Fatalf("failure log wrong: %+v", fails)
	}
	// Ring(2): deme 1's healed neighbours exclude the dead deme 0; with
	// only one live deme no links remain.
	if got := s.Router().Neighbors(1); len(got) != 0 {
		t.Fatalf("lone survivor should have no neighbours, got %v", got)
	}
}

func TestRetiredEvaluationsAccumulate(t *testing.T) {
	s, engines := newTestSupervisor(t, Config{MaxRestarts: 3, Backoff: time.Microsecond}, nil, 1)
	e := engines[0]
	evals := e.Evaluations()
	if err := s.Checkpoint(0, e.Population(), 0, evals); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Restart(0, 1, FailurePanic, "x"); !ok {
		t.Fatal("restart failed")
	}
	if s.RetiredEvaluations() != evals {
		t.Fatalf("retired %d, want %d", s.RetiredEvaluations(), evals)
	}
}

func TestCheckpointDue(t *testing.T) {
	s, _ := newTestSupervisor(t, Config{CheckpointEvery: 4}, nil, 1)
	for _, tc := range []struct {
		gen  int
		want bool
	}{{1, false}, {4, true}, {6, false}, {8, true}} {
		if got := s.CheckpointDue(tc.gen); got != tc.want {
			t.Fatalf("CheckpointDue(%d) = %v", tc.gen, got)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if FaultPanic.String() != "panic" || FaultHang.String() != "hang" {
		t.Fatal("FaultKind strings wrong")
	}
	if FailurePanic.String() != "panic" || FailureTimeout.String() != "timeout" {
		t.Fatal("FailureKind strings wrong")
	}
}
