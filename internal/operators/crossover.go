package operators

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Crossover recombines two parent genomes into two children. Parents are
// never modified; children are fresh genomes.
type Crossover interface {
	// Name identifies the crossover in tables and logs.
	Name() string
	// Cross returns two offspring of a and b. It panics if the genome type
	// is unsupported (a programming error, not a runtime condition).
	Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome)
}

// OnePoint is classic single-point crossover for bit strings, integer
// vectors and real vectors.
type OnePoint struct{}

// Name implements Crossover.
func (OnePoint) Name() string { return "1-point" }

// Cross implements Crossover.
func (OnePoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	OnePoint{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// TwoPoint is two-point crossover.
type TwoPoint struct{}

// Name implements Crossover.
func (TwoPoint) Name() string { return "2-point" }

// Cross implements Crossover.
func (TwoPoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	TwoPoint{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// KPoint is k-point crossover: the genomes are cut at K distinct interior
// points and alternating segments are exchanged.
type KPoint struct {
	// K is the number of cut points; it is capped at Len-1.
	K int
}

// Name implements Crossover.
func (k KPoint) Name() string { return fmt.Sprintf("%d-point", k.K) }

// Cross implements Crossover.
func (k KPoint) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	k.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// Uniform is uniform crossover: each gene is exchanged independently with
// probability P.
type Uniform struct {
	// P is the per-gene exchange probability; the canonical default is 0.5.
	P float64
}

// Name implements Crossover.
func (u Uniform) Name() string { return fmt.Sprintf("uniform(%.2g)", u.p()) }

func (u Uniform) p() float64 {
	if u.P <= 0 || u.P > 1 {
		return 0.5
	}
	return u.P
}

// Cross implements Crossover.
func (u Uniform) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	u.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// swapGene exchanges gene i between two genomes of the same concrete type.
func swapGene(a, b core.Genome, i int) {
	switch ga := a.(type) {
	case *genome.BitString:
		gb := b.(*genome.BitString)
		bi, bj := ga.Get(i), gb.Get(i)
		ga.Set(i, bj)
		gb.Set(i, bi)
	case *genome.IntVector:
		gb := b.(*genome.IntVector)
		ga.Genes[i], gb.Genes[i] = gb.Genes[i], ga.Genes[i]
	case *genome.RealVector:
		gb := b.(*genome.RealVector)
		ga.Genes[i], gb.Genes[i] = gb.Genes[i], ga.Genes[i]
	default:
		panic(fmt.Sprintf("operators: gene-wise crossover unsupported for %T", a))
	}
}

// Arithmetic is whole-arithmetic crossover for real vectors:
// child1 = α·a + (1-α)·b with a fresh α per call.
type Arithmetic struct{}

// Name implements Crossover.
func (Arithmetic) Name() string { return "arithmetic" }

// Cross implements Crossover.
func (Arithmetic) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	Arithmetic{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// BLX is blend crossover BLX-α for real vectors: each child gene is drawn
// uniformly from the parents' interval extended by α on both sides, then
// clamped to bounds.
type BLX struct {
	// Alpha is the interval extension factor; the canonical default is 0.5.
	Alpha float64
}

// Name implements Crossover.
func (c BLX) Name() string { return fmt.Sprintf("blx(%.2g)", c.alpha()) }

func (c BLX) alpha() float64 {
	if c.Alpha <= 0 {
		return 0.5
	}
	return c.Alpha
}

// Cross implements Crossover.
func (c BLX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	c.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// SBX is simulated binary crossover (Deb & Agrawal) for real vectors,
// the standard recombination of real-coded GAs.
type SBX struct {
	// Eta is the distribution index; larger values keep children closer to
	// parents. The canonical default is 15.
	Eta float64
}

// Name implements Crossover.
func (c SBX) Name() string { return fmt.Sprintf("sbx(%.3g)", c.eta()) }

func (c SBX) eta() float64 {
	if c.Eta <= 0 {
		return 15
	}
	return c.Eta
}

// Cross implements Crossover.
func (c SBX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	c.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

func mustReal(g core.Genome) *genome.RealVector {
	v, ok := g.(*genome.RealVector)
	if !ok {
		panic(fmt.Sprintf("operators: real-vector crossover applied to %T", g))
	}
	return v
}

func mustPerm(g core.Genome) *genome.Permutation {
	p, ok := g.(*genome.Permutation)
	if !ok {
		panic(fmt.Sprintf("operators: permutation crossover applied to %T", g))
	}
	return p
}

// OX is order crossover for permutations: a random slice of one parent is
// kept, the remaining positions are filled with the other parent's items in
// their relative order.
type OX struct{}

// Name implements Crossover.
func (OX) Name() string { return "ox" }

// Cross implements Crossover.
func (OX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	OX{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// PMX is partially mapped crossover for permutations.
type PMX struct{}

// Name implements Crossover.
func (PMX) Name() string { return "pmx" }

// Cross implements Crossover.
func (PMX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	PMX{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// ERX is edge recombination crossover for permutations: the child is
// built greedily from the union of both parents' adjacency (edge) lists,
// always moving to the current city's neighbour with the fewest remaining
// edges. It preserves parental adjacency better than OX/PMX, which is
// what matters for tour-length problems. This implementation produces one
// distinct child per parent ordering (the second child starts from the
// second parent's first city).
type ERX struct{}

// Name implements Crossover.
func (ERX) Name() string { return "erx" }

// Cross implements Crossover.
func (ERX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	ERX{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// CX is cycle crossover for permutations: children are composed of
// alternating cycles of the two parents, so every gene comes from one
// parent at the same position.
type CX struct{}

// Name implements Crossover.
func (CX) Name() string { return "cx" }

// Cross implements Crossover.
func (CX) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	CX{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}
