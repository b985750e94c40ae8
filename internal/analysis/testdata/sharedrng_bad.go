package fixture

// Inherited rngflow fixture (from the retired local sharedrng rule):
// one unsynchronized stream drawn by two goroutines at once. Uses
// *math/rand.Rand, treated like *rng.Source (checked as pga/internal/rng
// so the deliberate math/rand import stays out of norawrand's way).

import (
	"math/rand"
	"sync"
)

func raceOnParentStream(n int) int {
	r := rand.New(rand.NewSource(1))
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = r.Intn(n)
	}()
	total := r.Intn(n) // the race: the parent draws concurrently
	<-done
	return total
}

func twoGoroutinesOneStream(n int) {
	r := rand.New(rand.NewSource(2))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_ = r.Intn(n)
	}()
	go func() { // want rngflow
		defer wg.Done()
		_ = r.Intn(n)
	}()
	wg.Wait()
}

// keep is a package-level alias target for globalAlias.
var keep *rand.Rand

// globalAlias publishes the goroutine's stream: any later holder of keep
// draws against the goroutine.
func globalAlias(n int) {
	r := rand.New(rand.NewSource(3))
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = r.Intn(n)
	}()
	keep = r
	<-done
}

// holder carries a stream in a field.
type holder struct{ r *rand.Rand }

// stash stores r in h: drawing through h.r later draws r.
func stash(h *holder, r *rand.Rand) { h.r = r }

// helperStash hands the goroutine's stream to a helper and then draws it
// through the stashed field — the race, one alias removed.
func helperStash(n int) int {
	r := rand.New(rand.NewSource(4))
	h := &holder{}
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = r.Intn(n)
	}()
	stash(h, r)
	total := h.r.Intn(n)
	<-done
	return total
}

// aliasOnlyNilCheck references the goroutine's stream without drawing:
// the stream has left its owner's hands once another reference exists.
func aliasOnlyNilCheck(n int) bool {
	r := rand.New(rand.NewSource(5))
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = r.Intn(n)
	}()
	if r == nil {
		return false
	}
	<-done
	return true
}

// shared is a package-level stream: the draw facts file its draws as
// global writes, never as spawn draws.
var shared = rand.New(rand.NewSource(6))

// globalStreamRace draws a package-level stream on a goroutine and on
// the parent goroutine.
func globalStreamRace(n int) int {
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		_ = shared.Intn(n)
	}()
	total := shared.Intn(n)
	<-done
	return total
}

// funcValueHandoff hands the captured stream to a function value inside
// the goroutine. The call graph has no edge for a function-value call,
// so there is no draw evidence, yet the parent draws the same stream.
func funcValueHandoff(n int, work func(*rand.Rand)) int {
	r := rand.New(rand.NewSource(7))
	done := make(chan struct{})
	go func() { // want rngflow
		defer close(done)
		work(r)
	}()
	total := r.Intn(n)
	<-done
	return total
}

// nestedSpawn draws the stream on a goroutine and on a goroutine that
// one spawns: the inner literal's capture is referenced by the outer
// literal's body.
func nestedSpawn(n int) {
	r := rand.New(rand.NewSource(8))
	done := make(chan struct{})
	go func() {
		inner := make(chan struct{})
		go func() { // want rngflow
			defer close(inner)
			_ = r.Intn(n)
		}()
		_ = r.Intn(n)
		<-inner
		close(done)
	}()
	<-done
}
