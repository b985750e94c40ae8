package operators

// Word-wise operators for packed BitString genomes.
//
// The bit-wise operators (Uniform, KPoint, BitFlip) kept their historical
// one-draw-per-gene RNG sequences when BitString moved to the packed
// []uint64 layout, so the pre-existing golden traces stayed byte-identical.
// The operators in this file are the other half of that bargain: they
// exploit the packed layout directly — one RNG word per 64 genes, segment
// swaps as masked XORs — and therefore consume deliberately different draw
// sequences. They are pinned by their own golden traces (internal/equiv),
// never by the bit-wise ones.
//
// Every whole-word write ANDs its mask with genome.TailMask so the
// tail-mask invariant (bits at positions >= N stay zero) survives; the
// XOR-swap forms get that for free because the parents' tails are zero.

import (
	"fmt"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// Compile-time checks: the word-wise crossovers are in-place capable like
// every other library crossover.
var (
	_ InPlaceCrossover = UniformWord{}
	_ InPlaceCrossover = KPointWord{}
	_ Mutator          = BlockFlip{}
)

// mustBits asserts a packed BitString operand.
func mustBits(g core.Genome) *genome.BitString {
	b, ok := g.(*genome.BitString)
	if !ok {
		panic(fmt.Sprintf("operators: word-wise operator applied to %T", g))
	}
	return b
}

// UniformWord is word-granular uniform crossover: one RNG word per 64
// genes serves as the exchange mask (per-gene exchange probability 1/2,
// the canonical uniform crossover), replacing 64 per-gene Chance draws.
type UniformWord struct{}

// Name implements Crossover.
func (UniformWord) Name() string { return "uniform-word" }

// Cross implements Crossover.
func (UniformWord) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	UniformWord{}.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// CrossInto implements InPlaceCrossover: one Uint64 draw per word masks
// the exchanged bits. The XOR of two tail-invariant genomes has a zero
// tail, so the swap preserves the invariant without masking.
func (UniformWord) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	ba, bb := mustBits(a), mustBits(b)
	if ba.N != bb.N {
		panic("operators: UniformWord parents of different lengths")
	}
	ca, cb := mustBits(c1), mustBits(c2)
	ca.CopyFrom(ba)
	cb.CopyFrom(bb)
	for w := range ca.Words {
		x := (ca.Words[w] ^ cb.Words[w]) & r.Uint64()
		ca.Words[w] ^= x
		cb.Words[w] ^= x
	}
}

// KPointWord is k-point crossover executed as word-granular segment
// swaps: the cut points are drawn exactly like KPoint's, but alternating
// segments are exchanged with masked XORs over whole words instead of a
// per-gene swap loop.
type KPointWord struct {
	// K is the number of cut points; it is capped at Len-1.
	K int
}

// Name implements Crossover.
func (k KPointWord) Name() string { return fmt.Sprintf("%d-point-word", k.K) }

func (k KPointWord) clamp(n int) int {
	kk := k.K
	if kk < 1 {
		kk = 1
	}
	if kk > n-1 {
		kk = n - 1
	}
	return kk
}

// Cross implements Crossover.
func (k KPointWord) Cross(a, b core.Genome, r *rng.Source) (core.Genome, core.Genome) {
	c1, c2 := a.Clone(), b.Clone()
	k.CrossInto(a, b, c1, c2, r, new(Scratch))
	return c1, c2
}

// CrossInto implements InPlaceCrossover.
func (k KPointWord) CrossInto(a, b, c1, c2 core.Genome, r *rng.Source, s *Scratch) {
	ba, bb := mustBits(a), mustBits(b)
	n := ba.N
	if bb.N != n {
		panic("operators: KPointWord parents of different lengths")
	}
	ca, cb := mustBits(c1), mustBits(c2)
	ca.CopyFrom(ba)
	cb.CopyFrom(bb)
	if n < 2 {
		return
	}
	cuts := r.SampleInto(s.ints(n-1), k.clamp(n))
	kpointWordSwap(ca, cb, cuts)
}

// kpointWordSwap exchanges the alternating segments delimited by the cut
// draws (each cut c means a boundary before gene c+1, as in KPoint).
// cuts is reordered in place; the swap touches each word at most
// ceil(k/2)+1 times via swapBitRange's masked XORs.
func kpointWordSwap(ca, cb *genome.BitString, cuts []int) {
	// Cut draws are distinct but unordered; a tiny insertion sort keeps
	// this allocation-free (k is small).
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	for i := 0; i+1 < len(cuts); i += 2 {
		swapBitRange(ca, cb, cuts[i]+1, cuts[i+1]+1)
	}
	if len(cuts)%2 == 1 {
		swapBitRange(ca, cb, cuts[len(cuts)-1]+1, ca.N)
	}
}

// swapBitRange exchanges genes [lo, hi) between two equal-length
// genomes: masked XORs on the boundary words, straight word swaps in
// between.
func swapBitRange(ca, cb *genome.BitString, lo, hi int) {
	if lo >= hi {
		return
	}
	fw, lw := lo>>6, (hi-1)>>6
	first := ^uint64(0) << (uint(lo) & 63)
	last := ^uint64(0) >> (63 - uint(hi-1)&63)
	if fw == lw {
		x := (ca.Words[fw] ^ cb.Words[fw]) & first & last
		ca.Words[fw] ^= x
		cb.Words[fw] ^= x
		return
	}
	x := (ca.Words[fw] ^ cb.Words[fw]) & first
	ca.Words[fw] ^= x
	cb.Words[fw] ^= x
	for w := fw + 1; w < lw; w++ {
		ca.Words[w], cb.Words[w] = cb.Words[w], ca.Words[w]
	}
	x = (ca.Words[lw] ^ cb.Words[lw]) & last
	ca.Words[lw] ^= x
	cb.Words[lw] ^= x
}

// BlockFlip is a word-granular bit-flip mutator: for each 64-gene word
// it ANDs K fresh RNG words into a flip mask, giving every gene an
// independent flip probability of 2^-K — K draws per word instead of 64
// per-gene Chance draws. The default K=6 approximates the canonical
// 1/Len rate for 64-gene genomes (2^-6 = 1/64).
type BlockFlip struct {
	// K is the number of AND-ed mask draws per word (flip probability
	// 2^-K per gene); <= 0 selects 6.
	K int
}

func (m BlockFlip) k() int {
	if m.K <= 0 {
		return 6
	}
	return m.K
}

// Name implements Mutator.
func (m BlockFlip) Name() string { return fmt.Sprintf("blockflip(2^-%d)", m.k()) }

// Mutate implements Mutator.
func (m BlockFlip) Mutate(g core.Genome, r *rng.Source) {
	b := mustBits(g)
	if b.N == 0 {
		return
	}
	k := m.k()
	tail := genome.TailMask(b.N)
	last := len(b.Words) - 1
	for w := range b.Words {
		mask := r.Uint64()
		for i := 1; i < k; i++ {
			mask &= r.Uint64()
		}
		if w == last {
			mask &= tail
		}
		b.Words[w] ^= mask
	}
}
