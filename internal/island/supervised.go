package island

import (
	"sync"
	"sync/atomic"
	"time"

	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/transport"
)

// This file holds RunParallel's two runners, one per migration mode:
// barriered (sync) and free-running (async). Both run the engine.Loop
// driver and route every deme step through a supervise.Supervisor. With
// Config.Resilience set, panics are recovered into restarts from
// checkpoint, hung steps are abandoned on a heartbeat deadline, and demes
// that exhaust their restart budget are declared dead, frozen at their
// last checkpoint and routed around by a healed topology (Gagné et al.'s
// transparency/robustness/adaptivity at the island level; survey §4).
// Checkpoint capture rides the loop's OnGeneration observer hook —
// including the generation-0 hook, which is what checkpoints every deme
// before the first step. An unsupervised run is the same loop with a nil
// Supervisor: steps run inline, nothing is checkpointed and no deme ever
// dies, so the Router serves the configured topology unchanged.

// failureKind maps a step outcome to its failure class.
func failureKind(out supervise.StepOutcome) supervise.FailureKind {
	if out.Status == supervise.StepTimedOut {
		return supervise.FailureTimeout
	}
	return supervise.FailurePanic
}

// retireDeme records a dead deme's frozen population so statistics never
// touch its abandoned engine again.
func (m *Model) retireDeme(i int, frozen *core.Population) {
	if frozen == nil {
		frozen = core.NewPopulation(0)
	}
	m.deadPops[i] = frozen
}

// allDead stops a synchronous run when every deme has exhausted its
// restart budget.
type allDead struct{ router *supervise.Router }

// Done implements core.StopCondition.
func (a allDead) Done(core.Status) bool { return a.router.AliveCount() == 0 }

// Reason implements core.StopCondition.
func (a allDead) Reason() string { return "all demes dead" }

// syncStepper advances the live demes behind a per-generation barrier,
// every step supervised. Failed demes retry the *current* generation
// after restoring their checkpoint (the barrier cannot roll the other
// demes back), so a transient fault costs one deme its progress since the
// last checkpoint and nobody else anything. It is also the run's
// engine.Observer, checkpointing every live deme on checkpoint-due
// generations.
type syncStepper struct {
	modelStepper
	sup      *supervise.Supervisor
	router   *supervise.Router
	outcomes []supervise.StepOutcome
	wg       sync.WaitGroup
}

// Step implements engine.Stepper.
func (s *syncStepper) Step(g int) engine.StepInfo {
	m := s.m
	var info engine.StepInfo
	for i := range m.engines {
		if !s.router.Alive(i) {
			continue
		}
		s.wg.Add(1)
		go func(i int) {
			defer s.wg.Done()
			s.outcomes[i] = s.sup.RunStep(i, g, s.m.engines[i])
		}(i)
	}
	s.wg.Wait()

	// Serial recovery pass, deme order: restore-and-retry the failed
	// generation until it completes or the deme's budget runs out.
	for i := range m.engines {
		if !s.router.Alive(i) {
			continue
		}
		for s.outcomes[i].Status != supervise.StepOK {
			eng, frozen, ok := s.sup.Restart(i, g, failureKind(s.outcomes[i]), s.outcomes[i].Err)
			if !ok {
				m.retireDeme(i, frozen)
				break
			}
			info.Restarts++
			m.engines[i] = eng
			s.outcomes[i] = s.sup.RunStep(i, g, eng)
		}
	}

	if m.cfg.Policy.Due(g) {
		info.Migrations = m.exchangeOn(s.router)
		s.epochs++
		if m.maybeRewire(s.epochs) {
			s.router.Refresh()
		}
	}
	return info
}

// OnGeneration implements engine.Observer: on every checkpoint-due
// generation (including generation 0) it snapshots every live deme.
func (s *syncStepper) OnGeneration(st core.Status) {
	if !s.sup.CheckpointDue(st.Generation) {
		return
	}
	for i, e := range s.m.engines {
		if st.Generation == 0 || s.router.Alive(i) {
			_ = s.sup.Checkpoint(i, e.Population(), st.Generation, e.Evaluations())
		}
	}
}

// OnMigration implements engine.Observer.
func (s *syncStepper) OnMigration(int, int64) {}

// OnRestart implements engine.Observer.
func (s *syncStepper) OnRestart(int, int64) {}

// OnDone implements engine.Observer.
func (s *syncStepper) OnDone(*core.RunStats) {}

// runParallelSync: barrier per generation, central migration over the
// router's (healed) topology, checkpoints via the observer hook.
func (m *Model) runParallelSync(maxGens int, trace bool, sup *supervise.Supervisor, router *supervise.Router) *Result {
	res := &Result{}
	ta, _ := m.problem.(core.TargetAware)
	st := &syncStepper{
		modelStepper: modelStepper{m: m},
		sup:          sup,
		router:       router,
		outcomes:     make([]supervise.StepOutcome, len(m.engines)),
	}
	totals := engine.Loop(st, engine.Options{
		Stop:        core.AnyOf{core.MaxGenerations(maxGens), allDead{router: router}},
		Target:      ta,
		HaltOnSolve: true,
		Trace:       trace,
		Observers:   []engine.Observer{st},
	}, &res.RunStats)
	res.Migrations = totals.Migrations
	m.finish(res)
	return res
}

// demeHalt is the per-deme stop condition of the asynchronous mode: a
// free-running deme leaves its loop when any deme has solved or the
// generation cap is reached.
type demeHalt struct {
	solved *atomic.Bool
	max    int
}

// Done implements core.StopCondition.
func (h demeHalt) Done(s core.Status) bool { return s.Generation >= h.max || h.solved.Load() }

// Reason implements core.StopCondition.
func (h demeHalt) Reason() string { return "max generations" }

// pendingBatch is an undelivered async migrant batch awaiting retry.
type pendingBatch struct {
	dest     int
	batch    []*core.Individual
	attempts int
}

// asyncDeme is one free-running deme's engine.Stepper: evolve, check the
// deme's own population against the target, then (when the policy is
// due) emigrate over its transport endpoint and drain its inbox. A failed
// step restores the deme's checkpoint and rewinds the loop to the
// checkpointed generation (re-doing the lost work), and a dead deme halts
// its loop while the survivors route around it. Undeliverable migrant
// batches are retried on later epochs and dead-lettered after maxRetries
// (0 in an unsupervised run: a refused batch is dropped at once, never
// blocking evolution). The global best is computed after the demes join,
// so its loop runs with SkipBest.
type asyncDeme struct {
	m          *Model
	i          int
	e          ga.Engine
	mr         *rng.Source
	ep         transport.Endpoint
	sup        *supervise.Supervisor
	router     *supervise.Router
	maxRetries int
	pending    []pendingBatch
	solved     *atomic.Bool
	solvedGen  *atomic.Int64
	gens       []int
	ta         core.TargetAware
	delivered  int64
}

// deliver attempts one best-effort endpoint send, dead-lettering
// batches whose receiver died or whose retries ran out.
func (d *asyncDeme) deliver(pb pendingBatch) {
	if !d.router.Alive(pb.dest) {
		d.sup.DeadLetter(1)
		return
	}
	if d.ep.Send(pb.dest, pb.batch) {
		d.delivered++
		return
	}
	if pb.attempts >= d.maxRetries {
		d.sup.DeadLetter(1)
	} else {
		pb.attempts++
		//pgalint:ignore boundedres bounded by maxRetries: each batch re-queues at most MaxSendRetries times before dead-lettering, and Step drains pending every generation
		d.pending = append(d.pending, pb)
	}
}

// Step implements engine.Stepper.
func (d *asyncDeme) Step(g int) engine.StepInfo {
	var info engine.StepInfo
	out := d.sup.RunStep(d.i, g, d.e)
	if out.Status != supervise.StepOK {
		eng, frozen, ok := d.sup.Restart(d.i, g, failureKind(out), out.Err)
		if !ok {
			d.m.retireDeme(d.i, frozen)
			info.Rewound, info.ResumeAt = true, g-1
			info.Halt = true
			return info
		}
		d.e = eng
		d.m.engines[d.i] = eng
		info.Restarts = 1
		info.Rewound, info.ResumeAt = true, d.sup.ResumeGen(d.i)
		return info
	}
	d.gens[d.i] = g
	if d.ta != nil {
		if f := d.e.Population().BestFitness(d.m.dir); d.ta.Solved(f) {
			if d.solved.CompareAndSwap(false, true) {
				d.solvedGen.Store(int64(g))
			}
			info.Halt = true
			return info
		}
	}
	p := d.m.cfg.Policy
	if p.Due(g) {
		// Retry queued batches first (oldest first), then emigrate fresh
		// clones over the healed topology.
		queued := d.pending
		d.pending = d.pending[len(d.pending):]
		before := d.delivered
		for _, pb := range queued {
			d.deliver(pb)
		}
		nbrs := d.router.Neighbors(d.i)
		if len(nbrs) > 0 {
			out := p.Select.Pick(d.e.Population(), d.m.dir, p.Count, d.mr)
			for _, nbr := range nbrs {
				d.deliver(pendingBatch{dest: nbr, batch: migration.CloneBatch(out), attempts: 1})
			}
		}
		info.Migrations = d.delivered - before
		// Immigrate: drain whatever has arrived.
		for {
			batch, ok := d.ep.Recv()
			if !ok {
				break
			}
			p.Replace.Integrate(d.e.Population(), d.m.dir, batch, d.mr)
		}
	}
	return info
}

// Best implements engine.Stepper (unused: the deme loops run SkipBest).
func (d *asyncDeme) Best() (*core.Individual, float64) { return nil, d.m.dir.Worst() }

// Evaluations implements engine.Stepper.
func (d *asyncDeme) Evaluations() int64 { return d.e.Evaluations() }

// Direction implements engine.Stepper.
func (d *asyncDeme) Direction() core.Direction { return d.m.dir }

// OnGeneration implements engine.Observer: the deme checkpoints itself on
// every checkpoint-due generation, including generation 0 before the
// first step (rewound restart iterations never reach this hook, so a
// restart does not re-checkpoint the restored state).
func (d *asyncDeme) OnGeneration(s core.Status) {
	if d.sup.CheckpointDue(s.Generation) {
		_ = d.sup.Checkpoint(d.i, d.e.Population(), s.Generation, d.e.Evaluations())
	}
}

// OnMigration implements engine.Observer.
func (d *asyncDeme) OnMigration(int, int64) {}

// OnRestart implements engine.Observer.
func (d *asyncDeme) OnRestart(int, int64) {}

// OnDone implements engine.Observer: batches still pending when the
// worker exits — run over, deme solved, or deme dead — are lost traffic:
// dead-letter them so the counters account for every batch that never
// arrived.
func (d *asyncDeme) OnDone(*core.RunStats) {
	for range d.pending {
		d.sup.DeadLetter(1)
	}
	d.pending = nil
}

// runParallelAsync: free-running demes exchanging migrants over
// in-process loopback transport endpoints (the same seam wire-mode
// islands run over, with Loopback as the medium), one engine.Loop per
// deme goroutine with the deme itself as the checkpoint/dead-letter
// observer.
func (m *Model) runParallelAsync(maxGens int, sup *supervise.Supervisor, router *supervise.Router) *Result {
	start := time.Now()
	res := &Result{}
	ta, _ := m.problem.(core.TargetAware)
	p := m.cfg.Policy
	n := len(m.engines)
	maxRetries := 0
	if sup != nil {
		maxRetries = sup.Config().MaxSendRetries
	}

	eps := transport.NewLoopback(n, p.Buffer)
	var solved atomic.Bool
	var solvedGen atomic.Int64
	gens := make([]int, n)
	totals := make([]engine.Totals, n)

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := &asyncDeme{
				m: m, i: i, e: m.engines[i], mr: m.migRNGs[i],
				ep: eps[i], sup: sup, router: router, maxRetries: maxRetries,
				solved: &solved, solvedGen: &solvedGen, gens: gens, ta: ta,
			}
			var stats core.RunStats
			totals[i] = engine.Loop(d, engine.Options{
				Stop:      demeHalt{solved: &solved, max: maxGens},
				SkipBest:  true,
				Observers: []engine.Observer{d},
			}, &stats)
		}(i)
	}
	wg.Wait()

	for _, ep := range eps {
		res.Net.Add(ep.Stats())
	}
	m.finishAsync(res, totals, gens, &solved, &solvedGen)
	res.Elapsed = time.Since(start)
	return res
}

// finishAsync fills a Result after the deme goroutines of an asynchronous
// run have joined: global best, migration totals, solve point and the
// maximum per-deme generation.
func (m *Model) finishAsync(res *Result, totals []engine.Totals, gens []int, solved *atomic.Bool, solvedGen *atomic.Int64) {
	res.Best, res.BestFitness = m.globalBest()
	for _, t := range totals {
		res.Migrations += t.Migrations
	}
	res.StopReason = "max generations"
	if solved.Load() {
		res.Solved = true
		// In async mode evaluation counters cannot be snapshotted at the
		// instant of solving without racing other demes; the post-stop
		// total is a slight overcount and is documented as such.
		res.SolvedAtEval = m.totalEvaluations()
		res.SolvedAtGen = int(solvedGen.Load())
		res.StopReason = "target reached"
	}
	for _, g := range gens {
		if g > res.Generations {
			res.Generations = g
		}
	}
	res.Evaluations = m.totalEvaluations()
	m.finish(res)
}
