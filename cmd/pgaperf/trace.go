package main

import (
	"sync"
	"time"

	"pga/internal/core"
	"pga/internal/ga"
	"pga/internal/migration"
	"pga/internal/rng"
	"pga/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanStep      spanKind = iota // ga.Engine.Step of one deme
	spanEvaluate                  // core.Evaluator.EvaluateAll (the Farm on the farm workload)
	spanPick                      // migration.Selector.Pick
	spanIntegrate                 // migration.Replacer.Integrate
	spanSend                      // transport.Endpoint.Send
)

// span is one timed call across a layer boundary; parent is the index
// of the span whose call caused this one (-1 for none).
type span struct {
	kind       spanKind
	parent     int32
	start, end time.Duration // since the tracer's epoch
	// n is the work the call did: evaluations for spanEvaluate.
	n int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps every span in memory until the run ends. The wrappers
// below record into it from the deme goroutines, so it is locked.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(kind spanKind, parent int32) int32 {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{kind: kind, parent: parent, start: now})
	return int32(len(t.spans) - 1)
}

// end closes span id with its work count.
func (t *tracer) end(id int32, n int64) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.spans[id].n = n
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// tracedEvaluator records one spanEvaluate per EvaluateAll, parented to
// the step of its engine. It wraps core.Evaluator, an orchestration
// seam: the fitness function itself (Problem.Evaluate) is a purity role
// and is never wrapped.
type tracedEvaluator struct {
	core.Evaluator
	tr     *tracer
	parent int32 // the open step span; written and read on the deme's goroutine
	// keep, when set, keeps a copy of every genome sent for evaluation
	// with the fitness that came back, in genomes and fitness, for a
	// serial replay after the run.
	keep    bool
	genomes []core.Genome
	fitness []float64
}

func newTracedEvaluator(inner core.Evaluator, tr *tracer) *tracedEvaluator {
	return &tracedEvaluator{Evaluator: inner, tr: tr, parent: -1}
}

// EvaluateAll implements core.Evaluator.
func (v *tracedEvaluator) EvaluateAll(p core.Problem, pop *core.Population) {
	var pending []int
	if v.keep {
		for i, ind := range pop.Members {
			if !ind.Evaluated {
				pending = append(pending, i)
			}
		}
	}
	before := v.Evaluator.Evaluations()
	id := v.tr.begin(spanEvaluate, v.parent)
	v.Evaluator.EvaluateAll(p, pop)
	v.tr.end(id, v.Evaluator.Evaluations()-before)
	for _, i := range pending {
		v.genomes = append(v.genomes, pop.Members[i].Genome.Clone())
		v.fitness = append(v.fitness, pop.Members[i].Fitness)
	}
}

// tracedEngine records one spanStep per Step.
type tracedEngine struct {
	ga.Engine
	ev *tracedEvaluator
}

// Step implements ga.Engine.
func (e *tracedEngine) Step() {
	id := e.ev.tr.begin(spanStep, -1)
	e.ev.parent = id
	e.Engine.Step()
	e.ev.parent = -1
	e.ev.tr.end(id, 0)
}

// SetPopulation forwards the checkpoint-restore hook the supervisor
// calls on restarted engines.
func (e *tracedEngine) SetPopulation(pop *core.Population) {
	e.Engine.(interface{ SetPopulation(*core.Population) }).SetPopulation(pop)
}

// tracedSelector records one spanPick per Pick.
type tracedSelector struct {
	migration.Selector
	tr *tracer
}

// Pick implements migration.Selector.
func (s tracedSelector) Pick(pop *core.Population, d core.Direction, count int, r *rng.Source) []*core.Individual {
	id := s.tr.begin(spanPick, -1)
	out := s.Selector.Pick(pop, d, count, r)
	s.tr.end(id, int64(len(out)))
	return out
}

// tracedReplacer records one spanIntegrate per Integrate.
type tracedReplacer struct {
	migration.Replacer
	tr *tracer
}

// Integrate implements migration.Replacer.
func (r tracedReplacer) Integrate(pop *core.Population, d core.Direction, migrants []*core.Individual, src *rng.Source) int {
	id := r.tr.begin(spanIntegrate, -1)
	n := r.Replacer.Integrate(pop, d, migrants, src)
	r.tr.end(id, int64(n))
	return n
}

// tracedEndpoint records a spanSend per Send.
type tracedEndpoint struct {
	transport.Endpoint
	tr *tracer
}

// Send implements transport.Endpoint.
func (e tracedEndpoint) Send(dest int, migrants []*core.Individual) bool {
	id := e.tr.begin(spanSend, -1)
	ok := e.Endpoint.Send(dest, migrants)
	e.tr.end(id, 0)
	return ok
}
