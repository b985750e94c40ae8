package operators

// The operator bodies of the zero-allocation generation hot path.
//
// Every library crossover writes its offspring into caller-provided
// genomes (the engine's double-buffered next generation), and the
// rank-based selectors sort into a caller-provided index buffer. These
// CrossInto/SelectScratch methods are the only recombination and
// selection bodies: Crossover.Cross and Selector.Select on the same
// types clone the parents (or take a fresh Scratch) and delegate here,
// so both entry points draw the same RNG sequence by construction.
// Working memory (cut-point tables, used-flags, ranked indices, the ERX
// adjacency table) lives in a per-engine Scratch.

import (
	"math"
	"sort"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Scratch is reusable per-engine working memory for the in-place operator
// variants: index tables, flag vectors and the ranked-order buffer of
// rank-based selection. It grows to the largest size requested and is then
// allocation-free. A Scratch is NOT safe for concurrent use — give each
// engine (and each worker of a shared-memory engine) its own, exactly like
// an *rng.Source.
type Scratch struct {
	table  []int
	table2 []int
	flags  []bool
	rank   rankSorter

	// ERX working memory: the union adjacency of two closed tours is at
	// most four neighbours per city, so the edge table is a flat n×4
	// array with per-city counts — no per-call maps.
	erxEdges  []int // city v's neighbours at [4v : 4v+erxCnt[v]], ascending
	erxCnt    []int // neighbour count per city
	erxRem    []int // remaining-degree, reset per child
	erxCand   []int // minimum-degree candidate buffer (≤ 4)
	erxUnused []int // dead-end restart buffer
}

// ints returns a length-n int buffer (contents undefined).
func (s *Scratch) ints(n int) []int {
	if cap(s.table) < n {
		s.table = make([]int, n)
	}
	return s.table[:n]
}

// ints2 returns a second, independent length-n int buffer.
func (s *Scratch) ints2(n int) []int {
	if cap(s.table2) < n {
		s.table2 = make([]int, n)
	}
	return s.table2[:n]
}

// bools returns a length-n flag buffer cleared to false.
func (s *Scratch) bools(n int) []bool {
	if cap(s.flags) < n {
		s.flags = make([]bool, n)
	}
	f := s.flags[:n]
	for i := range f {
		f[i] = false
	}
	return f
}

// rankSorter sorts an index buffer worst → best under a direction without
// allocating (sort.Stable over a pointer receiver, unlike
// sort.SliceStable, performs no per-call allocation).
type rankSorter struct {
	idx []int
	pop *core.Population
	d   core.Direction
}

func (s *rankSorter) Len() int      { return len(s.idx) }
func (s *rankSorter) Swap(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] }
func (s *rankSorter) Less(a, b int) bool {
	// worst first
	return s.d.Better(s.pop.Members[s.idx[b]].Fitness, s.pop.Members[s.idx[a]].Fitness)
}

// rankIndicesInto returns population indices ordered worst → best under d
// (a stable sort, so fitness ties keep index order), reusing the scratch
// rank buffer.
func rankIndicesInto(s *Scratch, pop *core.Population, d core.Direction) []int {
	n := pop.Len()
	if cap(s.rank.idx) < n {
		s.rank.idx = make([]int, n)
	}
	s.rank.idx = s.rank.idx[:n]
	for i := range s.rank.idx {
		s.rank.idx[i] = i
	}
	s.rank.pop, s.rank.d = pop, d
	sort.Stable(&s.rank)
	s.rank.pop = nil // do not pin the population between calls
	return s.rank.idx
}

// ScratchSelector is implemented by selectors whose per-call working
// memory (ranked index buffers) can live in an engine-owned Scratch.
type ScratchSelector interface {
	Selector
	// SelectScratch is Select with caller-provided scratch; the RNG draw
	// sequence and the chosen index are identical to Select.
	SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int
}

// SelectWith invokes sel reusing scratch when both sides support it — the
// engines' hot-path entry point for parent selection. With a nil scratch
// or a plain Selector it degrades to sel.Select.
func SelectWith(sel Selector, pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	if ss, ok := sel.(ScratchSelector); ok && s != nil {
		return ss.SelectScratch(pop, d, r, s)
	}
	return sel.Select(pop, d, r)
}

// SelectScratch implements ScratchSelector.
func (sel LinearRank) SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	n := pop.Len()
	ranked := rankIndicesInto(s, pop, d)
	// rank 0 = worst … n-1 = best; weight(rank) = 2-SP + 2(SP-1)rank/(n-1).
	sp := sel.sp()
	if n == 1 {
		return 0
	}
	total := float64(n) // weights sum to n by construction
	x := r.Float64() * total
	acc := 0.0
	for rank := 0; rank < n; rank++ {
		w := 2 - sp + 2*(sp-1)*float64(rank)/float64(n-1)
		acc += w
		if x < acc {
			return ranked[rank]
		}
	}
	return ranked[n-1]
}

// SelectScratch implements ScratchSelector.
func (sel Truncation) SelectScratch(pop *core.Population, d core.Direction, r *rng.Source, s *Scratch) int {
	n := pop.Len()
	k := int(float64(n) * sel.frac())
	if k < 1 {
		k = 1
	}
	ranked := rankIndicesInto(s, pop, d) // worst → best
	return ranked[n-k+r.Intn(k)]
}

// InPlaceCrossover is implemented by crossovers that can write their
// offspring into caller-provided genomes without allocating. c1 and c2
// must share concrete type and length with a and b and must not alias
// them (or each other); Scratch supplies working memory.
type InPlaceCrossover interface {
	Crossover
	// CrossInto recombines a and b into c1 and c2 with the exact RNG draw
	// sequence of Cross.
	CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch)
}

// Compile-time checks: every library crossover is in-place capable.
var (
	_ InPlaceCrossover = OnePoint{}
	_ InPlaceCrossover = TwoPoint{}
	_ InPlaceCrossover = KPoint{}
	_ InPlaceCrossover = Uniform{}
	_ InPlaceCrossover = Arithmetic{}
	_ InPlaceCrossover = BLX{}
	_ InPlaceCrossover = SBX{}
	_ InPlaceCrossover = OX{}
	_ InPlaceCrossover = PMX{}
	_ InPlaceCrossover = CX{}
	_ InPlaceCrossover = ERX{}
)

// CrossInto recombines parents a and b into the two child individuals'
// existing genomes, in place when the crossover and the child genomes
// support it, falling back to the allocating Cross otherwise. Either way
// the RNG draw sequence is identical, the children never alias the
// parents, and the children's fitness is left untouched (callers
// invalidate). This is the engines' hot-path entry point for
// recombination.
func CrossInto(c Crossover, a, b core.Genome, ch1, ch2 *core.Individual, r *rng.Source, s *Scratch) {
	if ip, ok := c.(InPlaceCrossover); ok && s != nil &&
		reusable(ch1.Genome, a) && reusable(ch2.Genome, b) {
		ip.CrossInto(a, b, ch1.Genome, ch2.Genome, r, s)
		return
	}
	ch1.Genome, ch2.Genome = c.Cross(a, b, r)
}

// reusable reports whether dst can be overwritten in place with src's
// genes: an InPlace genome of the same concrete type and length.
func reusable(dst, src core.Genome) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.(core.InPlace); !ok {
		return false
	}
	return sameConcrete(dst, src) && dst.Len() == src.Len()
}

// sameConcrete reports whether two genomes share a concrete type, without
// reflection (the four library representations are enumerated; unknown
// types conservatively report false and take the allocating path).
func sameConcrete(x, y core.Genome) bool {
	switch x.(type) {
	case *genome.BitString:
		_, ok := y.(*genome.BitString)
		return ok
	case *genome.RealVector:
		_, ok := y.(*genome.RealVector)
		return ok
	case *genome.IntVector:
		_, ok := y.(*genome.IntVector)
		return ok
	case *genome.Permutation:
		_, ok := y.(*genome.Permutation)
		return ok
	}
	return false
}

// CrossInto implements InPlaceCrossover.
func (OnePoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	KPoint{K: 1}.CrossInto(a, b, c1, c2, r, s)
}

// CrossInto implements InPlaceCrossover.
func (TwoPoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	KPoint{K: 2}.CrossInto(a, b, c1, c2, r, s)
}

// CrossInto implements InPlaceCrossover.
func (k KPoint) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	n := a.Len()
	if b.Len() != n {
		panic("operators: KPoint parents of different lengths")
	}
	c1.(core.InPlace).CopyFrom(a)
	c2.(core.InPlace).CopyFrom(b)
	if n < 2 {
		return
	}
	kk := k.K
	if kk < 1 {
		kk = 1
	}
	if kk > n-1 {
		kk = n - 1
	}
	// Choose kk distinct cut points in [1, n-1].
	cutIdx := r.SampleInto(s.ints(n-1), kk)
	cuts := s.bools(n)
	for _, c := range cutIdx {
		cuts[c+1] = true
	}
	swap := false
	for i := 0; i < n; i++ {
		if cuts[i] {
			swap = !swap
		}
		if swap {
			swapGene(c1, c2, i)
		}
	}
}

// CrossInto implements InPlaceCrossover.
func (u Uniform) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	n := a.Len()
	if b.Len() != n {
		panic("operators: Uniform parents of different lengths")
	}
	c1.(core.InPlace).CopyFrom(a)
	c2.(core.InPlace).CopyFrom(b)
	p := u.p()
	for i := 0; i < n; i++ {
		if r.Chance(p) {
			swapGene(c1, c2, i)
		}
	}
}

// CrossInto implements InPlaceCrossover.
func (Arithmetic) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi // bounds shared, as in Clone
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	alpha := r.Float64()
	for i := range ca.Genes {
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = alpha*x + (1-alpha)*y
		cb.Genes[i] = (1-alpha)*x + alpha*y
	}
}

// CrossInto implements InPlaceCrossover.
func (c BLX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	alpha := c.alpha()
	for i := range ca.Genes {
		lo, hi := va.Genes[i], vb.Genes[i]
		if lo > hi {
			lo, hi = hi, lo
		}
		d := hi - lo
		l, h := lo-alpha*d, hi+alpha*d
		ca.Genes[i] = r.Range(l, h)
		cb.Genes[i] = r.Range(l, h)
	}
	ca.Clamp()
	cb.Clamp()
}

// CrossInto implements InPlaceCrossover.
func (c SBX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	va, vb := mustReal(a), mustReal(b)
	ca, cb := mustReal(c1), mustReal(c2)
	ca.Lo, ca.Hi = va.Lo, va.Hi
	cb.Lo, cb.Hi = vb.Lo, vb.Hi
	eta := c.eta()
	for i := range ca.Genes {
		u := r.Float64()
		var beta float64
		if u <= 0.5 {
			beta = math.Pow(2*u, 1/(eta+1))
		} else {
			beta = math.Pow(1/(2*(1-u)), 1/(eta+1))
		}
		x, y := va.Genes[i], vb.Genes[i]
		ca.Genes[i] = 0.5 * ((1+beta)*x + (1-beta)*y)
		cb.Genes[i] = 0.5 * ((1-beta)*x + (1+beta)*y)
	}
	ca.Clamp()
	cb.Clamp()
}

// CrossInto implements InPlaceCrossover.
func (OX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	oxChildInto(ca, pa, pb, i, j, s)
	oxChildInto(cb, pb, pa, i, j, s)
}

// oxChildInto keeps keep[i..j] in child's existing Perm and fills the
// rest from other in order.
func oxChildInto(child, keep, other *genome.Permutation, i, j int, s *Scratch) {
	n := keep.Len()
	used := s.bools(n)
	for k := i; k <= j; k++ {
		child.Perm[k] = keep.Perm[k]
		used[keep.Perm[k]] = true
	}
	pos := (j + 1) % n
	for k := 0; k < n; k++ {
		v := other.Perm[(j+1+k)%n]
		if used[v] {
			continue
		}
		child.Perm[pos] = v
		used[v] = true
		pos = (pos + 1) % n
	}
}

// CrossInto implements InPlaceCrossover.
func (PMX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	i := r.Intn(n)
	j := r.Intn(n)
	if i > j {
		i, j = j, i
	}
	pmxChildInto(ca, pa, pb, i, j, s)
	pmxChildInto(cb, pb, pa, i, j, s)
}

// pmxChildInto writes into child's existing Perm a child that takes
// segment [i,j] from donor and maps the rest from filler through the
// segment's mapping.
func pmxChildInto(child, donor, filler *genome.Permutation, i, j int, s *Scratch) {
	n := donor.Len()
	inSeg := s.bools(n) // value → lies in donor segment
	posOf := s.ints2(n) // value → its position in donor segment mapping
	for k := range posOf {
		posOf[k] = -1
	}
	for k := i; k <= j; k++ {
		child.Perm[k] = donor.Perm[k]
		inSeg[donor.Perm[k]] = true
		posOf[donor.Perm[k]] = k
	}
	for k := 0; k < n; k++ {
		if k >= i && k <= j {
			continue
		}
		v := filler.Perm[k]
		// Follow the mapping chain until v is not in the donor segment.
		for inSeg[v] {
			v = filler.Perm[posOf[v]]
		}
		child.Perm[k] = v
	}
}

// CrossInto implements InPlaceCrossover.
func (CX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	posInA := s.ints(n) // value → position in pa
	for i, v := range pa.Perm {
		posInA[v] = i
	}
	assigned := s.bools(n)
	fromA := true
	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		// Trace the cycle containing position start.
		k := start
		for !assigned[k] {
			assigned[k] = true
			if fromA {
				ca.Perm[k], cb.Perm[k] = pa.Perm[k], pb.Perm[k]
			} else {
				ca.Perm[k], cb.Perm[k] = pb.Perm[k], pa.Perm[k]
			}
			k = posInA[pb.Perm[k]]
		}
		fromA = !fromA
	}
}

// CrossInto implements InPlaceCrossover.
func (ERX) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	pa, pb := mustPerm(a), mustPerm(b)
	ca, cb := mustPerm(c1), mustPerm(c2)
	n := pa.Len()
	if n < 2 {
		ca.CopyFrom(pa)
		cb.CopyFrom(pb)
		return
	}
	erxEdgesInto(s, pa.Perm, pb.Perm)
	erxChildInto(ca, pa.Perm[0], n, r, s)
	erxChildInto(cb, pb.Perm[0], n, r, s)
}

// erxEdgesInto fills the scratch adjacency table with each city's
// neighbour set over both parent tours (closed tours: first and last are
// adjacent). Per-city lists are kept ascending by sorted insertion, so
// the candidate scan order, and with it the tie-break draws, does not
// depend on the order edges were added in.
func erxEdgesInto(s *Scratch, pa, pb []int) {
	n := len(pa)
	if cap(s.erxEdges) < 4*n {
		s.erxEdges = make([]int, 4*n)
		s.erxCnt = make([]int, n)
		s.erxRem = make([]int, n)
		s.erxCand = make([]int, 4)
		s.erxUnused = make([]int, n)
	}
	edges, cnt := s.erxEdges[:4*n], s.erxCnt[:n]
	for i := range cnt {
		cnt[i] = 0
	}
	add := func(v, u int) {
		base := 4 * v
		k := 0
		for ; k < cnt[v]; k++ {
			if edges[base+k] == u {
				return
			}
			if edges[base+k] > u {
				break
			}
		}
		for j := cnt[v]; j > k; j-- {
			edges[base+j] = edges[base+j-1]
		}
		edges[base+k] = u
		cnt[v]++
	}
	addTour := func(p []int) {
		for i, v := range p {
			add(v, p[(i+n-1)%n])
			add(v, p[(i+1)%n])
		}
	}
	addTour(pa)
	addTour(pb)
}

// erxChildInto builds one child tour starting from start in child's
// existing Perm, reading the adjacency table prepared by erxEdgesInto.
func erxChildInto(child *genome.Permutation, start, n int, r *rng.Source, s *Scratch) {
	edges, cnt := s.erxEdges, s.erxCnt
	rem := s.erxRem[:n]
	copy(rem, cnt)
	used := s.bools(n)
	cur := start
	filled := 0
	for {
		child.Perm[filled] = cur
		filled++
		used[cur] = true
		if filled == n {
			break
		}
		// Decrease the remaining-degree of cur's neighbours.
		base := 4 * cur
		for k := 0; k < cnt[cur]; k++ {
			if u := edges[base+k]; !used[u] {
				rem[u]--
			}
		}
		// Next: unused neighbour with the fewest remaining edges; ties
		// broken uniformly at random. Indexed writes, not append: the
		// buffers are scratch-owned and exactly sized.
		cand := s.erxCand[:4]
		candN := 0
		bestDeg := 1 << 30
		for k := 0; k < cnt[cur]; k++ {
			u := edges[base+k]
			if used[u] {
				continue
			}
			switch {
			case rem[u] < bestDeg:
				bestDeg = rem[u]
				cand[0] = u
				candN = 1
			case rem[u] == bestDeg:
				cand[candN] = u
				candN++
			}
		}
		if candN == 0 {
			// Dead end: restart from a uniformly random unused city
			// (ascending scan).
			unused := s.erxUnused[:n]
			un := 0
			for v := 0; v < n; v++ {
				if !used[v] {
					unused[un] = v
					un++
				}
			}
			cur = unused[r.Intn(un)]
			continue
		}
		cur = cand[r.Intn(candN)]
	}
}
