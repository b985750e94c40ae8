package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"pga/internal/core"
	"pga/internal/migration"
	"pga/internal/persist"
	"pga/internal/problems"
	"pga/internal/rng"
	"pga/internal/transport"
)

// Wire workload sizes: batches of 8 evaluated OneMax-1024 migrants, the
// payload pgaisland ships, exchanged in a closed loop — one batch in
// flight, the direction reversing after each arrival — between two
// transport.TCP endpoints on 127.0.0.1.
const (
	wireBits     = 1024
	wireMigrants = 8
	wireBatches  = 32 // batches per seed-run, half each way
	// wireTimeout bounds one batch's trip; a batch later than this is
	// counted lost.
	wireTimeout = 5 * time.Second
)

// runWire is one seed-run of wire-migration: open two connected
// endpoints (set-up), carry wireBatches batches through them and check
// each arrives equal to what was sent, genome for genome.
func runWire(seed uint64, tr *tracer, lay *layers) outcome {
	var o outcome
	batches := wireInputs(seed, wireBatches+2) // two warm-up batches open the connections

	start := time.Now()
	a, b, err := openPair(seed)
	if err != nil {
		o.failf("%v", err)
		return o
	}
	defer a.Close()
	defer b.Close()
	eps := [2]transport.Endpoint{a, b}
	if tr != nil {
		eps = [2]transport.Endpoint{tracedEndpoint{a, tr}, tracedEndpoint{b, tr}}
	}
	for k := 0; k < 2; k++ {
		if _, _, err := carry(eps[k], eps[1-k], batches[k]); err != nil {
			o.failf("first connect: %v", err)
			return o
		}
	}
	o.setup = time.Since(start)
	batches = batches[2:]

	var mem memWindow
	mem.start()
	start = time.Now()
	for k, orig := range batches {
		src, dst := eps[k%2], eps[1-k%2]
		o.sent++
		lat, got, err := carry(src, dst, orig)
		if err != nil {
			o.failf("batch %d: %v", k, err)
			break
		}
		o.latencies = append(o.latencies, lat.total)
		if !sameBatch(orig, got) {
			o.failf("batch %d arrived changed", k)
			continue
		}
		o.delivered++
		if lay != nil {
			lay.deliverUS = append(lay.deliverUS, us(lat.total-lat.send))
		}
	}
	o.wall = time.Since(start)
	mem.stop(&o)

	o.batches = o.delivered
	o.evals = o.delivered * wireMigrants
	o.evaluations, o.evolved = o.evals, o.evals
	var ns core.NetStats
	ns.Add(a.Stats())
	ns.Add(b.Stats())
	if ns.Dropped != 0 {
		o.failf("%d batches dropped by the endpoints", ns.Dropped)
	}
	if lay != nil {
		lay.runWalls = append(lay.runWalls, o.wall)
		lay.dropped += ns.Dropped
		lay.reconnects += ns.Reconnects
		if err := replayCodec(batches, lay); err != nil {
			o.failf("%v", err)
		}
	}
	return o
}

// wireInputs generates n batches of evaluated migrants from seed.
func wireInputs(seed uint64, n int) [][]*core.Individual {
	r := rng.New(seed)
	prob := problems.OneMax{N: wireBits}
	out := make([][]*core.Individual, n)
	for k := range out {
		out[k] = make([]*core.Individual, wireMigrants)
		for j := range out[k] {
			ind := core.NewIndividual(prob.NewGenome(r))
			ind.Fitness, ind.Evaluated = prob.Evaluate(ind.Genome), true
			out[k][j] = ind
		}
	}
	return out
}

// openPair binds two loopback listeners and builds endpoint 0 and 1
// dialling each other. Connections open lazily on the first Send.
func openPair(seed uint64) (*transport.TCP, *transport.TCP, error) {
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lnA.Close()
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	a, err := transport.NewTCP(transport.TCPConfig{Self: 0, Listener: lnA,
		Peers: map[int]string{1: lnB.Addr().String()}, Seed: seed})
	if err != nil {
		lnA.Close()
		lnB.Close()
		return nil, nil, fmt.Errorf("endpoint 0: %w", err)
	}
	b, err := transport.NewTCP(transport.TCPConfig{Self: 1, Listener: lnB,
		Peers: map[int]string{0: lnA.Addr().String()}, Seed: seed + 1})
	if err != nil {
		a.Close()
		lnB.Close()
		return nil, nil, fmt.Errorf("endpoint 1: %w", err)
	}
	return a, b, nil
}

// trip is the timing of one carried batch.
type trip struct{ send, total time.Duration }

// carry sends a clone of batch from src to dst and polls dst until it
// arrives: total runs from the Send call to the Recv that returns it,
// send is the part spent inside Send (encoding and enqueueing on the
// caller).
func carry(src, dst transport.Endpoint, batch []*core.Individual) (trip, []*core.Individual, error) {
	out := migration.CloneBatch(batch)
	start := time.Now()
	if !src.Send(dst.Self(), out) {
		return trip{}, nil, fmt.Errorf("send %d→%d refused", src.Self(), dst.Self())
	}
	var t trip
	t.send = time.Since(start)
	for {
		got, ok := dst.Recv()
		if ok {
			t.total = time.Since(start)
			return t, got, nil
		}
		if time.Since(start) > wireTimeout {
			return t, nil, fmt.Errorf("no arrival %d→%d within %v", src.Self(), dst.Self(), wireTimeout)
		}
		runtime.Gosched()
	}
}

// sameBatch reports whether got equals want genome for genome.
func sameBatch(want, got []*core.Individual) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if !sameIndividual(want[i], got[i]) {
			return false
		}
	}
	return true
}

// replayCodec runs the persist population codec the wire frames carry
// on each batch: its size, encode and decode time, and a round-trip
// check.
func replayCodec(batches [][]*core.Individual, lay *layers) error {
	for k, batch := range batches {
		pop := &core.Population{Members: batch}
		start := time.Now()
		data, err := persist.MarshalPopulation(pop)
		lay.marshalUS = append(lay.marshalUS, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("marshal batch %d: %w", k, err)
		}
		start = time.Now()
		back, err := persist.UnmarshalPopulation(data)
		lay.unmarshalUS = append(lay.unmarshalUS, us(time.Since(start)))
		if err != nil {
			return fmt.Errorf("unmarshal batch %d: %w", k, err)
		}
		if !sameBatch(batch, back.Members) {
			return fmt.Errorf("batch %d changed in a codec round trip", k)
		}
		lay.batchBytes = append(lay.batchBytes, float64(len(data)))
	}
	return nil
}
