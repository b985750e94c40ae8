package operators

import (
	"math"
	"testing"

	"pga/internal/core"
	"pga/internal/genome"
	"pga/internal/rng"
)

// popWithFitness builds an evaluated population whose member i has the
// given fitness (genome content irrelevant).
func popWithFitness(fs ...float64) *core.Population {
	pop := core.NewPopulation(len(fs))
	for _, f := range fs {
		ind := core.NewIndividual(genome.NewBitString(4))
		ind.Fitness, ind.Evaluated = f, true
		pop.Members = append(pop.Members, ind)
	}
	return pop
}

func selectionRates(t *testing.T, s Selector, pop *core.Population, d core.Direction, draws int) []float64 {
	t.Helper()
	r := rng.New(12345)
	counts := make([]int, pop.Len())
	for i := 0; i < draws; i++ {
		idx := s.Select(pop, d, r)
		if idx < 0 || idx >= pop.Len() {
			t.Fatalf("%s returned out-of-range index %d", s.Name(), idx)
		}
		counts[idx]++
	}
	rates := make([]float64, len(counts))
	for i, c := range counts {
		rates[i] = float64(c) / float64(draws)
	}
	return rates
}

func TestTournamentPrefersBetter(t *testing.T) {
	pop := popWithFitness(1, 2, 3, 4, 5)
	rates := selectionRates(t, Tournament{K: 3}, pop, core.Maximize, 20000)
	for i := 1; i < len(rates); i++ {
		if rates[i] <= rates[i-1] {
			t.Fatalf("tournament rates not increasing with fitness: %v", rates)
		}
	}
}

func TestTournamentMinimize(t *testing.T) {
	pop := popWithFitness(1, 2, 3, 4, 5)
	rates := selectionRates(t, Tournament{K: 3}, pop, core.Minimize, 20000)
	for i := 1; i < len(rates); i++ {
		if rates[i] >= rates[i-1] {
			t.Fatalf("tournament(minimize) rates not decreasing: %v", rates)
		}
	}
}

func TestTournamentPressureGrowsWithK(t *testing.T) {
	pop := popWithFitness(1, 2, 3, 4, 5)
	r2 := selectionRates(t, Tournament{K: 2}, pop, core.Maximize, 30000)
	r5 := selectionRates(t, Tournament{K: 5}, pop, core.Maximize, 30000)
	if r5[4] <= r2[4] {
		t.Fatalf("K=5 best-rate %v not above K=2 %v", r5[4], r2[4])
	}
}

func TestTournamentDefaultK(t *testing.T) {
	pop := popWithFitness(1, 5)
	// K < 1 falls back to 2; just verify it works and prefers better.
	rates := selectionRates(t, Tournament{K: 0}, pop, core.Maximize, 10000)
	if rates[1] <= rates[0] {
		t.Fatalf("default-K tournament has no pressure: %v", rates)
	}
}

func TestRoulettePrefersBetter(t *testing.T) {
	pop := popWithFitness(1, 2, 3, 4, 10)
	rates := selectionRates(t, Roulette{}, pop, core.Maximize, 30000)
	if rates[4] <= rates[0] {
		t.Fatalf("roulette ignores fitness: %v", rates)
	}
}

func TestRouletteHandlesNegativeFitness(t *testing.T) {
	pop := popWithFitness(-10, -5, -1)
	rates := selectionRates(t, Roulette{}, pop, core.Maximize, 30000)
	if rates[2] <= rates[0] {
		t.Fatalf("roulette with negatives: %v", rates)
	}
}

func TestRouletteMinimize(t *testing.T) {
	pop := popWithFitness(1, 5, 10)
	rates := selectionRates(t, Roulette{}, pop, core.Minimize, 30000)
	if rates[0] <= rates[2] {
		t.Fatalf("roulette(minimize): %v", rates)
	}
}

func TestRouletteUniformWhenEqual(t *testing.T) {
	pop := popWithFitness(3, 3, 3, 3)
	rates := selectionRates(t, Roulette{}, pop, core.Maximize, 40000)
	for _, r := range rates {
		if math.Abs(r-0.25) > 0.02 {
			t.Fatalf("roulette not uniform on equal fitness: %v", rates)
		}
	}
}

func TestLinearRankDistribution(t *testing.T) {
	pop := popWithFitness(10, 20, 30, 40)
	rates := selectionRates(t, LinearRank{SP: 2}, pop, core.Maximize, 40000)
	// With SP=2 and n=4, expected probabilities are (0, 1/6, 2/6, 3/6)/... :
	// weight(rank)=2-2+2*1*rank/3 = 2rank/3; sum = 4; P = rank/6.
	want := []float64{0, 1.0 / 6, 2.0 / 6, 3.0 / 6}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 0.02 {
			t.Fatalf("rank rates %v, want ≈%v", rates, want)
		}
	}
}

func TestLinearRankSingleton(t *testing.T) {
	pop := popWithFitness(7)
	if idx := (LinearRank{}).Select(pop, core.Maximize, rng.New(1)); idx != 0 {
		t.Fatalf("singleton rank select = %d", idx)
	}
}

func TestLinearRankDefaultSP(t *testing.T) {
	if (LinearRank{SP: 0}).sp() != 1.5 || (LinearRank{SP: 3}).sp() != 1.5 {
		t.Fatal("SP default wrong")
	}
	if (LinearRank{SP: 1.2}).sp() != 1.2 {
		t.Fatal("valid SP overridden")
	}
}

func TestTruncationOnlySelectsTopFraction(t *testing.T) {
	pop := popWithFitness(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	r := rng.New(7)
	s := Truncation{Frac: 0.3}
	for i := 0; i < 5000; i++ {
		idx := s.Select(pop, core.Maximize, r)
		if pop.Members[idx].Fitness < 8 {
			t.Fatalf("truncation(0.3) selected fitness %v", pop.Members[idx].Fitness)
		}
	}
	// Minimize: only fitness <= 3 should appear.
	for i := 0; i < 5000; i++ {
		idx := s.Select(pop, core.Minimize, r)
		if pop.Members[idx].Fitness > 3 {
			t.Fatalf("truncation(0.3,min) selected fitness %v", pop.Members[idx].Fitness)
		}
	}
}

func TestTruncationDefaults(t *testing.T) {
	if (Truncation{}).frac() != 0.5 || (Truncation{Frac: 2}).frac() != 0.5 {
		t.Fatal("Truncation default frac wrong")
	}
}

func TestRandomSelectorUniform(t *testing.T) {
	pop := popWithFitness(1, 100, 1, 100)
	rates := selectionRates(t, Random{}, pop, core.Maximize, 40000)
	for _, r := range rates {
		if math.Abs(r-0.25) > 0.02 {
			t.Fatalf("random selector biased: %v", rates)
		}
	}
}

func TestBestSelector(t *testing.T) {
	pop := popWithFitness(3, 9, 1)
	if idx := (Best{}).Select(pop, core.Maximize, rng.New(1)); idx != 1 {
		t.Fatalf("Best(max)=%d", idx)
	}
	if idx := (Best{}).Select(pop, core.Minimize, rng.New(1)); idx != 2 {
		t.Fatalf("Best(min)=%d", idx)
	}
}

func TestSUSCountAndSpread(t *testing.T) {
	pop := popWithFitness(1, 1, 1, 1, 100)
	r := rng.New(9)
	picks := SUS(pop, core.Maximize, 10, r)
	if len(picks) != 10 {
		t.Fatalf("SUS returned %d picks, want 10", len(picks))
	}
	bestCount := 0
	for _, p := range picks {
		if p < 0 || p >= pop.Len() {
			t.Fatalf("SUS pick out of range: %d", p)
		}
		if p == 4 {
			bestCount++
		}
	}
	if bestCount < 5 {
		t.Fatalf("SUS gave best individual only %d/10 slots", bestCount)
	}
}

func TestSUSEqualFitnessIsFair(t *testing.T) {
	pop := popWithFitness(2, 2, 2, 2)
	r := rng.New(10)
	counts := make([]int, 4)
	for trial := 0; trial < 1000; trial++ {
		for _, p := range SUS(pop, core.Maximize, 4, r) {
			counts[p]++
		}
	}
	for i, c := range counts {
		if c != 1000 {
			t.Fatalf("SUS unfair on equal fitness: member %d got %d/1000", i, c)
		}
	}
}

func TestSUSMinimize(t *testing.T) {
	pop := popWithFitness(1, 50, 50, 50)
	r := rng.New(11)
	count0 := 0
	for trial := 0; trial < 200; trial++ {
		for _, p := range SUS(pop, core.Minimize, 4, r) {
			if p == 0 {
				count0++
			}
		}
	}
	if count0 < 300 { // member 0 should take far more than 1/4 of 800 slots
		t.Fatalf("SUS(minimize) under-selected best: %d/800", count0)
	}
}

func TestSelectorNames(t *testing.T) {
	for _, s := range []Selector{Tournament{K: 2}, Roulette{}, LinearRank{}, Truncation{}, Random{}, Best{}} {
		if s.Name() == "" {
			t.Fatalf("%T has empty name", s)
		}
	}
}

func TestRankIndicesOrder(t *testing.T) {
	pop := popWithFitness(5, 1, 9, 3)
	idx := rankIndicesInto(new(Scratch), pop, core.Maximize)
	want := []int{1, 3, 0, 2} // worst → best
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("rankIndicesInto = %v, want %v", idx, want)
		}
	}
}
