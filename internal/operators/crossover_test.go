package operators

import (
	"reflect"
	"testing"
	"testing/quick"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

func TestKPointPreservesMultiset(t *testing.T) {
	// Every child position holds a gene from one of the parents at the
	// same position.
	r := rng.New(1)
	for _, k := range []int{1, 2, 3, 7} {
		a := genome.RandomBitString(32, r)
		b := genome.RandomBitString(32, r)
		ca, cb := (KPoint{K: k}).Cross(a, b, r)
		ga, gb := ca.(*genome.BitString), cb.(*genome.BitString)
		for i := 0; i < 32; i++ {
			okA := ga.Get(i) == a.Get(i) || ga.Get(i) == b.Get(i)
			okB := gb.Get(i) == a.Get(i) || gb.Get(i) == b.Get(i)
			if !okA || !okB {
				t.Fatalf("k=%d: child gene %d not from either parent", k, i)
			}
			// Children are complementary: together they hold both parent genes.
			if (ga.Get(i) == a.Get(i)) != (gb.Get(i) == b.Get(i)) && a.Get(i) != b.Get(i) {
				t.Fatalf("k=%d: children not complementary at %d", k, i)
			}
		}
	}
}

func TestOnePointSingleBoundary(t *testing.T) {
	r := rng.New(2)
	a := genome.NewBitString(16) // all zero
	b := genome.NewBitString(16)
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true) // all one
	}
	for trial := 0; trial < 100; trial++ {
		ca, _ := (OnePoint{}).Cross(a, b, r)
		g := ca.(*genome.BitString)
		// Child must be 0^i 1^j or have exactly one transition.
		transitions := 0
		for i := 1; i < 16; i++ {
			if g.Get(i) != g.Get(i-1) {
				transitions++
			}
		}
		if transitions != 1 {
			t.Fatalf("1-point child has %d transitions: %v", transitions, g)
		}
	}
}

func TestTwoPointTransitions(t *testing.T) {
	r := rng.New(3)
	a := genome.NewBitString(16)
	b := genome.NewBitString(16)
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true)
	}
	for trial := 0; trial < 100; trial++ {
		ca, _ := (TwoPoint{}).Cross(a, b, r)
		g := ca.(*genome.BitString)
		transitions := 0
		for i := 1; i < 16; i++ {
			if g.Get(i) != g.Get(i-1) {
				transitions++
			}
		}
		if transitions > 2 {
			t.Fatalf("2-point child has %d transitions", transitions)
		}
	}
}

func TestKPointDoesNotModifyParents(t *testing.T) {
	r := rng.New(4)
	a := genome.RandomBitString(20, r)
	b := genome.RandomBitString(20, r)
	ac := a.Clone().(*genome.BitString)
	bc := b.Clone().(*genome.BitString)
	(KPoint{K: 3}).Cross(a, b, r)
	if !a.Equal(ac) || !b.Equal(bc) {
		t.Fatal("crossover modified a parent")
	}
}

func TestKPointTinyGenomes(t *testing.T) {
	r := rng.New(5)
	a := genome.NewBitString(1)
	b := genome.NewBitString(1)
	b.Set(0, true)
	ca, cb := (KPoint{K: 3}).Cross(a, b, r)
	if ca.Len() != 1 || cb.Len() != 1 {
		t.Fatal("length changed on 1-gene crossover")
	}
}

func TestKPointLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	r := rng.New(6)
	(OnePoint{}).Cross(genome.NewBitString(4), genome.NewBitString(5), r)
}

func TestKPointWorksOnIntAndRealVectors(t *testing.T) {
	r := rng.New(7)
	ia := genome.RandomIntVector(10, 5, r)
	ib := genome.RandomIntVector(10, 5, r)
	ca, cb := (TwoPoint{}).Cross(ia, ib, r)
	if !ca.(*genome.IntVector).Valid() || !cb.(*genome.IntVector).Valid() {
		t.Fatal("int-vector children invalid")
	}
	ra := genome.RandomRealVector(10, -1, 1, r)
	rb := genome.RandomRealVector(10, -1, 1, r)
	cra, crb := (OnePoint{}).Cross(ra, rb, r)
	if !cra.(*genome.RealVector).InBounds() || !crb.(*genome.RealVector).InBounds() {
		t.Fatal("real-vector children out of bounds")
	}
}

func TestUniformExchangesRoughlyP(t *testing.T) {
	r := rng.New(8)
	n := 1000
	a := genome.NewBitString(n)
	b := genome.NewBitString(n)
	for i := 0; i < b.Len(); i++ {
		b.Set(i, true)
	}
	ca, _ := (Uniform{P: 0.3}).Cross(a, b, r)
	ones := ca.(*genome.BitString).OnesCount()
	if ones < 230 || ones > 370 {
		t.Fatalf("uniform(0.3) exchanged %d/1000 genes", ones)
	}
}

func TestUniformComplementary(t *testing.T) {
	r := rng.New(9)
	a := genome.RandomBitString(64, r)
	b := genome.RandomBitString(64, r)
	ca, cb := (Uniform{}).Cross(a, b, r)
	ga, gb := ca.(*genome.BitString), cb.(*genome.BitString)
	for i := 0; i < 64; i++ {
		if a.Get(i) == b.Get(i) {
			continue
		}
		if ga.Get(i) == gb.Get(i) {
			t.Fatalf("uniform children not complementary at %d", i)
		}
	}
}

func TestArithmeticChildrenWithinSegment(t *testing.T) {
	r := rng.New(10)
	a := genome.RandomRealVector(8, -5, 5, r)
	b := genome.RandomRealVector(8, -5, 5, r)
	ca, cb := (Arithmetic{}).Cross(a, b, r)
	ga, gb := ca.(*genome.RealVector), cb.(*genome.RealVector)
	for i := 0; i < 8; i++ {
		lo, hi := a.Genes[i], b.Genes[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		if ga.Genes[i] < lo-1e-12 || ga.Genes[i] > hi+1e-12 {
			t.Fatalf("arithmetic child outside parent segment at %d", i)
		}
		// Children sum equals parents sum (convexity with shared alpha).
		if s, w := ga.Genes[i]+gb.Genes[i], a.Genes[i]+b.Genes[i]; s < w-1e-9 || s > w+1e-9 {
			t.Fatalf("arithmetic children don't conserve sum at %d", i)
		}
	}
}

func TestBLXWithinExpandedIntervalAndBounds(t *testing.T) {
	r := rng.New(11)
	a := genome.RandomRealVector(10, 0, 1, r)
	b := genome.RandomRealVector(10, 0, 1, r)
	ca, cb := (BLX{Alpha: 0.5}).Cross(a, b, r)
	for _, c := range []*genome.RealVector{ca.(*genome.RealVector), cb.(*genome.RealVector)} {
		if !c.InBounds() {
			t.Fatal("BLX child out of bounds")
		}
		for i := range c.Genes {
			lo, hi := a.Genes[i], b.Genes[i]
			if lo > hi {
				lo, hi = hi, lo
			}
			d := hi - lo
			if c.Genes[i] < lo-0.5*d-1e-12 || c.Genes[i] > hi+0.5*d+1e-12 {
				t.Fatalf("BLX child outside expanded interval at %d", i)
			}
		}
	}
}

func TestSBXChildrenMeanEqualsParentsMean(t *testing.T) {
	r := rng.New(12)
	a := genome.RandomRealVector(6, -100, 100, r)
	b := genome.RandomRealVector(6, -100, 100, r)
	ca, cb := (SBX{Eta: 15}).Cross(a, b, r)
	ga, gb := ca.(*genome.RealVector), cb.(*genome.RealVector)
	for i := 0; i < 6; i++ {
		pm := (a.Genes[i] + b.Genes[i]) / 2
		cm := (ga.Genes[i] + gb.Genes[i]) / 2
		if d := pm - cm; d > 1e-9 || d < -1e-9 {
			t.Fatalf("SBX mean not conserved at %d: %v vs %v", i, pm, cm)
		}
	}
	if !ga.InBounds() || !gb.InBounds() {
		t.Fatal("SBX child out of bounds")
	}
}

func TestRealCrossoverPanicsOnWrongType(t *testing.T) {
	for _, c := range []Crossover{Arithmetic{}, BLX{}, SBX{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on bitstring", c.Name())
				}
			}()
			c.Cross(genome.NewBitString(4), genome.NewBitString(4), rng.New(1))
		}()
	}
}

func permClosureCheck(t *testing.T, c Crossover) {
	t.Helper()
	r := rng.New(99)
	check := func(seed uint16) bool {
		rr := rng.New(uint64(seed))
		n := int(seed%29) + 2
		a := genome.RandomPermutation(n, rr)
		b := genome.RandomPermutation(n, rr)
		ca, cb := c.Cross(a, b, r)
		return ca.(*genome.Permutation).Valid() && cb.(*genome.Permutation).Valid() &&
			a.Valid() && b.Valid()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatalf("%s closure violated: %v", c.Name(), err)
	}
}

func TestOXClosure(t *testing.T)  { permClosureCheck(t, OX{}) }
func TestPMXClosure(t *testing.T) { permClosureCheck(t, PMX{}) }
func TestCXClosure(t *testing.T)  { permClosureCheck(t, CX{}) }

func TestCXGenesComeFromParentsAtSamePosition(t *testing.T) {
	r := rng.New(13)
	a := genome.RandomPermutation(12, r)
	b := genome.RandomPermutation(12, r)
	ca, cb := (CX{}).Cross(a, b, r)
	ga, gb := ca.(*genome.Permutation), cb.(*genome.Permutation)
	for i := 0; i < 12; i++ {
		if ga.Perm[i] != a.Perm[i] && ga.Perm[i] != b.Perm[i] {
			t.Fatalf("CX child gene %d from neither parent", i)
		}
		if gb.Perm[i] != a.Perm[i] && gb.Perm[i] != b.Perm[i] {
			t.Fatalf("CX child2 gene %d from neither parent", i)
		}
	}
}

func TestCXIdenticalParents(t *testing.T) {
	r := rng.New(14)
	a := genome.RandomPermutation(8, r)
	ca, cb := (CX{}).Cross(a, a.Clone(), r)
	for i, v := range a.Perm {
		if ca.(*genome.Permutation).Perm[i] != v || cb.(*genome.Permutation).Perm[i] != v {
			t.Fatal("CX of identical parents changed genes")
		}
	}
}

func TestPermCrossoverTinyGenomes(t *testing.T) {
	r := rng.New(15)
	a := genome.IdentityPermutation(1)
	b := genome.IdentityPermutation(1)
	for _, c := range []Crossover{OX{}, PMX{}} {
		ca, cb := c.Cross(a, b, r)
		if ca.Len() != 1 || cb.Len() != 1 {
			t.Fatalf("%s broke length-1 permutation", c.Name())
		}
	}
}

func TestPermCrossoverPanicsOnWrongType(t *testing.T) {
	for _, c := range []Crossover{OX{}, PMX{}, CX{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on bitstring", c.Name())
				}
			}()
			c.Cross(genome.NewBitString(4), genome.NewBitString(4), rng.New(1))
		}()
	}
}

func TestCrossoverNames(t *testing.T) {
	for _, c := range []Crossover{OnePoint{}, TwoPoint{}, KPoint{K: 3}, Uniform{},
		Arithmetic{}, BLX{}, SBX{}, OX{}, PMX{}, CX{}, ERX{}} {
		if c.Name() == "" {
			t.Fatalf("%T has empty name", c)
		}
	}
}

func TestCrossoverDeterministicWithSameSeed(t *testing.T) {
	mk := func() core.Genome {
		r := rng.New(77)
		a := genome.RandomPermutation(20, r)
		b := genome.RandomPermutation(20, r)
		ca, _ := (PMX{}).Cross(a, b, r)
		return ca
	}
	x := mk().(*genome.Permutation)
	y := mk().(*genome.Permutation)
	for i := range x.Perm {
		if x.Perm[i] != y.Perm[i] {
			t.Fatal("crossover not reproducible with same seed")
		}
	}
}

// crossGenomes builds a random genome of each class the spec vocabulary
// names.
var crossGenomes = map[string]func(n int, r *rng.Source) core.Genome{
	"bits": func(n int, r *rng.Source) core.Genome { return genome.RandomBitString(n, r) },
	"real": func(n int, r *rng.Source) core.Genome { return genome.RandomRealVector(n, -5, 5, r) },
	"int":  func(n int, r *rng.Source) core.Genome { return genome.RandomIntVector(n, 7, r) },
	"perm": func(n int, r *rng.Source) core.Genome { return genome.RandomPermutation(n, r) },
}

// staleChild builds a reused child of another lineage: the parents'
// class and length, but other genes, bounds and cardinality.
func staleChild(class string, n int, r *rng.Source) core.Genome {
	switch class {
	case "real":
		return genome.RandomRealVector(n, -1, 1, r)
	case "int":
		return genome.RandomIntVector(n, 3, r)
	}
	return crossGenomes[class](n, r)
}

// geneStorage returns a pointer to the first element of g's gene array,
// or nil when it is empty: two genomes share storage iff these match.
func geneStorage(g core.Genome) any {
	switch v := g.(type) {
	case *genome.BitString:
		if len(v.Words) > 0 {
			return &v.Words[0]
		}
	case *genome.RealVector:
		if len(v.Genes) > 0 {
			return &v.Genes[0]
		}
	case *genome.IntVector:
		if len(v.Genes) > 0 {
			return &v.Genes[0]
		}
	case *genome.Permutation:
		if len(v.Perm) > 0 {
			return &v.Perm[0]
		}
	}
	return nil
}

// TestCrossMatchesCrossInto pins the two crossover entry points to each
// other for every registered crossover (plus multi-cut k-point variants)
// on every genome class its spec entry accepts. Cross builds fresh
// children; CrossInto overwrites reused children of another lineage and
// runs on a Scratch left dirty by a different operator at a larger
// length. Both must yield identical children and leave the RNG at the
// same next draw, neither may modify a parent, and no child may share
// gene storage with a parent.
func TestCrossMatchesCrossInto(t *testing.T) {
	classes := map[string][]string{}
	for _, e := range SpecEntries() {
		if e.Kind == KindCrossover {
			classes[OperatorTypeName(e.Build(map[string]float64{}))] = e.Genomes
		}
	}
	var ops []InPlaceCrossover
	for _, op := range RegisteredOperators() {
		if _, ok := op.(Crossover); !ok {
			continue
		}
		c, ok := op.(InPlaceCrossover)
		if !ok {
			t.Fatalf("%T has no CrossInto", op)
		}
		ops = append(ops, c)
	}
	ops = append(ops, KPoint{K: 3}, KPointWord{K: 3})
	// Between them the dirtying operators touch every Scratch buffer a
	// crossover uses.
	dirtiers := []struct {
		op    InPlaceCrossover
		class string
	}{{KPoint{K: 3}, "bits"}, {OX{}, "perm"}, {PMX{}, "perm"}, {CX{}, "perm"}, {ERX{}, "perm"}}

	for _, op := range ops {
		name := OperatorTypeName(op)
		if len(classes[name]) == 0 {
			t.Fatalf("%s: no genome classes in the spec vocabulary", name)
		}
		for _, class := range classes[name] {
			gen := crossGenomes[class]
			for _, n := range []int{1, 2, 5, 17, 63, 64, 65, 130} {
				for seed := uint64(1); seed <= 3; seed++ {
					setup := rng.New(seed*1000 + uint64(n))
					s := new(Scratch)
					for _, d := range dirtiers {
						if OperatorTypeName(d.op) == name {
							continue
						}
						m := 2*n + 3
						dg := crossGenomes[d.class]
						d.op.CrossInto(dg(m, setup), dg(m, setup), dg(m, setup), dg(m, setup), setup, s)
					}
					a, b := gen(n, setup), gen(n, setup)
					a0, b0 := a.Clone(), b.Clone()
					d1, d2 := staleChild(class, n, setup), staleChild(class, n, setup)

					r1 := rng.New(seed)
					c1, c2 := op.Cross(a, b, r1)
					r2 := rng.New(seed)
					op.CrossInto(a, b, d1, d2, r2, s)

					where := name + "/" + class
					if !reflect.DeepEqual(c1, d1) || !reflect.DeepEqual(c2, d2) {
						t.Fatalf("%s n=%d seed=%d: CrossInto children %v %v, Cross %v %v",
							where, n, seed, d1, d2, c1, c2)
					}
					if r1.Uint64() != r2.Uint64() {
						t.Fatalf("%s n=%d seed=%d: RNG streams diverge after crossover", where, n, seed)
					}
					if !reflect.DeepEqual(a, a0) || !reflect.DeepEqual(b, b0) {
						t.Fatalf("%s n=%d seed=%d: a parent was modified", where, n, seed)
					}
					for _, c := range []core.Genome{c1, c2, d1, d2} {
						if st := geneStorage(c); st != nil && (st == geneStorage(a) || st == geneStorage(b)) {
							t.Fatalf("%s n=%d seed=%d: a child shares gene storage with a parent", where, n, seed)
						}
					}
				}
			}
		}
	}
}
