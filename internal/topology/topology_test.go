package topology

import (
	"testing"
	"testing/quick"
)

func TestRing(t *testing.T) {
	r := Ring(5)
	if r.Size() != 5 {
		t.Fatal("size")
	}
	for i := 0; i < 5; i++ {
		ns := r.Neighbors(i)
		if len(ns) != 1 || ns[0] != (i+1)%5 {
			t.Fatalf("ring neighbor of %d = %v", i, ns)
		}
	}
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(r); d != 4 {
		t.Fatalf("ring(5) diameter = %d, want 4", d)
	}
}

func TestBiRing(t *testing.T) {
	r := BiRing(6)
	for i := 0; i < 6; i++ {
		if len(r.Neighbors(i)) != 2 {
			t.Fatalf("bi-ring degree %d at %d", len(r.Neighbors(i)), i)
		}
	}
	if err := Validate(r); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(r); d != 3 {
		t.Fatalf("bi-ring(6) diameter = %d, want 3", d)
	}
}

func TestStar(t *testing.T) {
	s := Star(7)
	if len(s.Neighbors(0)) != 6 {
		t.Fatal("hub degree wrong")
	}
	for i := 1; i < 7; i++ {
		ns := s.Neighbors(i)
		if len(ns) != 1 || ns[0] != 0 {
			t.Fatalf("leaf %d neighbors %v", i, ns)
		}
	}
	if err := Validate(s); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(s); d != 2 {
		t.Fatalf("star diameter = %d, want 2", d)
	}
}

func TestComplete(t *testing.T) {
	c := Complete(5)
	for i := 0; i < 5; i++ {
		if len(c.Neighbors(i)) != 4 {
			t.Fatal("complete degree wrong")
		}
	}
	if err := Validate(c); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(c); d != 1 {
		t.Fatalf("complete diameter = %d, want 1", d)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4)
	if g.Size() != 12 {
		t.Fatal("size")
	}
	if err := Validate(g); err != nil {
		t.Fatal(err)
	}
	// Corner has 2 neighbours, centre has 4.
	if len(g.Neighbors(0)) != 2 {
		t.Fatalf("corner degree %d", len(g.Neighbors(0)))
	}
	if len(g.Neighbors(5)) != 4 { // row1 col1
		t.Fatalf("centre degree %d", len(g.Neighbors(5)))
	}
	if d := Diameter(g); d != 5 { // (3-1)+(4-1)
		t.Fatalf("grid(3x4) diameter = %d, want 5", d)
	}
}

func TestTorus(t *testing.T) {
	tr := Torus(4, 4)
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if len(tr.Neighbors(i)) != 4 {
			t.Fatalf("torus degree %d at %d", len(tr.Neighbors(i)), i)
		}
	}
	if d := Diameter(tr); d != 4 { // 2+2
		t.Fatalf("torus(4x4) diameter = %d, want 4", d)
	}
}

func TestTorusDegenerate(t *testing.T) {
	// 2-wide dimensions create duplicate links that must be deduplicated,
	// and 1-wide dimensions create self-loops that must be dropped.
	tr := Torus(2, 2)
	if err := Validate(tr); err != nil {
		t.Fatal(err)
	}
	tr1 := Torus(1, 4)
	if err := Validate(tr1); err != nil {
		t.Fatal(err)
	}
	if !Connected(tr1) {
		t.Fatal("1x4 torus should be connected")
	}
}

func TestHypercube(t *testing.T) {
	h := Hypercube(3)
	if h.Size() != 8 {
		t.Fatal("size")
	}
	if err := Validate(h); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if len(h.Neighbors(i)) != 3 {
			t.Fatal("hypercube degree wrong")
		}
	}
	if d := Diameter(h); d != 3 {
		t.Fatalf("hypercube(3) diameter = %d, want 3", d)
	}
}

func TestIsolated(t *testing.T) {
	iso := Isolated(4)
	for i := 0; i < 4; i++ {
		if len(iso.Neighbors(i)) != 0 {
			t.Fatal("isolated has edges")
		}
	}
	if Connected(iso) {
		t.Fatal("isolated reported connected")
	}
	if err := Validate(iso); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegular(t *testing.T) {
	rr := RandomRegular(10, 3, 42)
	if err := Validate(rr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if len(rr.Neighbors(i)) != 3 {
			t.Fatalf("degree %d at %d", len(rr.Neighbors(i)), i)
		}
	}
	// Deterministic per seed.
	rr2 := RandomRegular(10, 3, 42)
	for i := 0; i < 10; i++ {
		a, b := rr.Neighbors(i), rr2.Neighbors(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("same seed produced different random topology")
			}
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for k >= n")
		}
	}()
	RandomRegular(3, 3, 1)
}

func TestDynamicRewire(t *testing.T) {
	d := NewDynamic(func(seed uint64) Topology { return RandomRegular(8, 2, seed) }, 1)
	if d.Size() != 8 {
		t.Fatal("size")
	}
	before := make([][]int, 8)
	for i := range before {
		before[i] = append([]int(nil), d.Neighbors(i)...)
	}
	d.Rewire()
	if err := Validate(d); err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range before {
		after := d.Neighbors(i)
		for j := range before[i] {
			if before[i][j] != after[j] {
				changed = true
			}
		}
	}
	if !changed {
		t.Fatal("Rewire changed nothing")
	}
	if d.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestAllTopologiesConnectedAndValid(t *testing.T) {
	tops := []Topology{
		Ring(8), BiRing(8), Star(8), Complete(8),
		Grid(2, 4), Torus(2, 4), Hypercube(3), RandomRegular(8, 3, 7),
	}
	for _, tp := range tops {
		if err := Validate(tp); err != nil {
			t.Fatalf("%s: %v", tp.Name(), err)
		}
		if !Connected(tp) {
			t.Fatalf("%s not connected", tp.Name())
		}
	}
}

func TestDiameterOrdering(t *testing.T) {
	// Fundamental topology fact exploited by E14: at equal deme count,
	// complete < star <= hypercube <= bi-ring <= ring in diameter.
	n := 8
	dc := Diameter(Complete(n))
	ds := Diameter(Star(n))
	dh := Diameter(Hypercube(3))
	db := Diameter(BiRing(n))
	dr := Diameter(Ring(n))
	if !(dc < ds && ds <= dh && dh <= db && db <= dr) {
		t.Fatalf("diameter ordering violated: complete=%d star=%d hyper=%d biring=%d ring=%d",
			dc, ds, dh, db, dr)
	}
}

func TestValidatePropertyRandomSeeds(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%14) + 3
		k := int(seed%3) + 1
		if k >= n {
			k = n - 1
		}
		return Validate(RandomRegular(n, k, seed)) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSmallTopologiesHaveNoSelfLoopsOrDuplicates builds every
// constructor at 1–6 demes: no deme may list itself, and no neighbour
// list may name a deme twice (a one-deme ring is linkless, a two-deme
// bi-ring has one link per deme).
func TestSmallTopologiesHaveNoSelfLoopsOrDuplicates(t *testing.T) {
	for n := 1; n <= 6; n++ {
		tops := []Topology{
			Isolated(n), Ring(n), BiRing(n), Star(n), Complete(n),
			Grid(1, n), Grid(n, 1), Torus(1, n), Torus(n, 1),
			RandomRegular(n, n-1, uint64(n)),
			NewDynamic(func(seed uint64) Topology { return RandomRegular(n, n-1, seed) }, 1),
		}
		if n%2 == 0 {
			tops = append(tops, Grid(2, n/2), Torus(2, n/2))
		}
		if n&(n-1) == 0 {
			d := 0
			for 1<<uint(d) < n {
				d++
			}
			tops = append(tops, Hypercube(d))
		}
		for _, tp := range tops {
			if tp.Size() != n {
				t.Fatalf("%s: size %d, want %d", tp.Name(), tp.Size(), n)
			}
			if err := Validate(tp); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
		}
	}
}
