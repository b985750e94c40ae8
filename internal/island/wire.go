package island

// Wire mode: one island per OS process, migration over a real
// transport (internal/transport). RunWire is the process-local half of
// the distributed island model — cmd/pgaisland wires it to a TCP
// endpoint and N processes form the island ring the in-process modes
// simulate with goroutines.
//
// Failure is the normal case out here, so the semantics are explicitly
// degraded-but-alive:
//
//   - Migration is best-effort. A batch that cannot reach a peer is
//     dropped and counted (Result.Net, surfaced through DeadLettered);
//     evolution never blocks on the wire.
//   - An island that loses peers keeps evolving solo. Peer-liveness
//     transitions from the transport feed a supervise.Router over the
//     island topology, so migration reroutes around a partitioned or
//     crashed peer exactly the way the in-process supervisor routes
//     around a dead deme — and, unlike demes, a wire peer that
//     reconnects is revived (Router.MarkAlive) and rejoins the flow.
//   - No global solve broadcast: a wire island stops on its own solve
//     or its generation cap. Cross-process termination is the driver's
//     job (cmd/pgaisland exits; the peers' sends to it dead-letter).

import (
	"pga/internal/core"
	"pga/internal/engine"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/supervise"
	"pga/internal/topology"
	"pga/internal/transport"
)

// WireConfig configures one island of a multi-process run.
type WireConfig struct {
	// Self is this island's id in [0, Topology.Size()).
	Self int
	// Topology is the full inter-island graph (required); only the
	// healed neighbour view of Self is used locally.
	Topology topology.Topology
	// Endpoint carries migrant batches (required). If it reports peer
	// liveness (transport.LivenessReporter), down/up transitions heal
	// and re-heal the migration routes.
	Endpoint transport.Endpoint
	// Policy is the migration policy (defaults applied).
	Policy migration.Policy
	// Engine is this island's evolution engine (required).
	Engine ga.Engine
	// MigRNG is this island's private migration stream (required; see
	// WireStreams for the split that matches the in-process model).
	MigRNG *rng.Source
	// MaxGens caps the run.
	MaxGens int
	// Trace records per-generation trace points.
	Trace bool
	// Observers receive the run-lifecycle hooks.
	Observers []engine.Observer
}

// WireStreams performs the in-process model's split of the master seed
// (newDemeStreams: engine stream then migration stream, per deme in id
// order) and returns island self's pair. A wire run over n islands
// with seed s therefore gives every island the same private streams its
// deme would have had in-process.
func WireStreams(seed uint64, n, self int) (engineRNG, migRNG *rng.Source) {
	engineRNGs, migRNGs := newDemeStreams(rng.New(seed), n)
	return engineRNGs[self], migRNGs[self]
}

// wireDeme is the engine.Stepper of one wire-mode island.
type wireDeme struct {
	cfg    *WireConfig
	e      ga.Engine
	router *supervise.Router
	dir    core.Direction
}

// Step implements engine.Stepper: evolve, then (when due) emigrate
// over the healed routes and integrate whatever the wire delivered.
func (d *wireDeme) Step(g int) engine.StepInfo {
	var info engine.StepInfo
	d.e.Step()
	p := d.cfg.Policy
	if p.Due(g) {
		nbrs := d.router.Neighbors(d.cfg.Self)
		if len(nbrs) > 0 {
			out := p.Select.Pick(d.e.Population(), d.dir, p.Count, d.cfg.MigRNG)
			for _, nbr := range nbrs {
				if d.cfg.Endpoint.Send(nbr, migration.CloneBatch(out)) {
					info.Migrations++
				}
			}
		}
		for {
			batch, ok := d.cfg.Endpoint.Recv()
			if !ok {
				break
			}
			p.Replace.Integrate(d.e.Population(), d.dir, batch, d.cfg.MigRNG)
		}
	}
	return info
}

// Best implements engine.Stepper.
func (d *wireDeme) Best() (*core.Individual, float64) {
	pop := d.e.Population()
	if i := pop.Best(d.dir); i >= 0 {
		return pop.Members[i], pop.Members[i].Fitness
	}
	return nil, d.dir.Worst()
}

// Evaluations implements engine.Stepper.
func (d *wireDeme) Evaluations() int64 { return d.e.Evaluations() }

// Direction implements engine.Stepper.
func (d *wireDeme) Direction() core.Direction { return d.dir }

// MeanFitness implements engine.MeanReporter.
func (d *wireDeme) MeanFitness() float64 {
	sum, n := 0.0, 0
	for _, ind := range d.e.Population().Members {
		if ind.Evaluated {
			sum += ind.Fitness
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RunWire runs one island over its transport endpoint until it solves
// or reaches MaxGens. The returned Result maps transport accounting
// onto the supervision fields: DeadLettered counts transport-level
// batch losses (every batch that never reached a peer) and Restarts
// counts peer-link reconnects — the wire analogue of a deme restart.
func RunWire(cfg WireConfig) *Result {
	if cfg.Topology == nil {
		panic("island: WireConfig.Topology is required")
	}
	if cfg.Endpoint == nil {
		panic("island: WireConfig.Endpoint is required")
	}
	if cfg.Engine == nil {
		panic("island: WireConfig.Engine is required")
	}
	if cfg.MigRNG == nil {
		panic("island: WireConfig.MigRNG is required")
	}
	cfg.Policy = cfg.Policy.WithDefaults()

	router := supervise.NewRouter(cfg.Topology)
	if lr, ok := cfg.Endpoint.(transport.LivenessReporter); ok {
		lr.SetPeerStateHook(func(peer int, up bool) {
			if up {
				router.MarkAlive(peer)
			} else {
				router.MarkDead(peer)
			}
		})
	}

	d := &wireDeme{
		cfg:    &cfg,
		e:      cfg.Engine,
		router: router,
		dir:    cfg.Engine.Problem().Direction(),
	}
	res := &Result{}
	ta, _ := cfg.Engine.Problem().(core.TargetAware)
	totals := engine.Loop(d, engine.Options{
		Stop:              core.MaxGenerations(cfg.MaxGens),
		Target:            ta,
		HaltOnSolve:       true,
		InitialSolve:      true,
		Trace:             cfg.Trace,
		InitialTracePoint: cfg.Trace,
		Observers:         cfg.Observers,
	}, &res.RunStats)
	res.Migrations = totals.Migrations
	res.PerDemeBest = []float64{d.e.Population().BestFitness(d.dir)}
	res.Net = cfg.Endpoint.Stats()
	res.DeadLettered = res.Net.Dropped
	res.Restarts = res.Net.Reconnects
	res.DeadDemes = router.Dead()
	return res
}
