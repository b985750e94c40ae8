package fixture

// Inherited clean rngflow fixture (from the retired sharedrng rule): each
// goroutine owns its stream — split-and-move-in and pass-as-argument.

import "math/rand"

func childStreamPerGoroutine(n int) int {
	parent := rand.New(rand.NewSource(1))
	done := make(chan struct{})
	child := rand.New(rand.NewSource(parent.Int63()))
	go func() {
		defer close(done)
		_ = child.Intn(n) // moved in: never referenced outside again
	}()
	total := parent.Intn(n) // parent stream stays with the parent
	<-done
	return total
}

func streamAsArgument(n int) {
	parent := rand.New(rand.NewSource(2))
	done := make(chan struct{})
	go func(r *rand.Rand) { // argument evaluated at spawn, in the parent
		defer close(done)
		_ = r.Intn(n)
	}(rand.New(rand.NewSource(parent.Int63())))
	_ = parent.Intn(n)
	<-done
}
