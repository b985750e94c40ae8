package operators

import (
	"fmt"
	"strings"
)

// RegisteredOperators returns one canonical zero value of every concrete
// library operator. The internal/equiv tests derive type names from
// these to check which operators the golden traces exercise; experiments
// and examples may also range over it. The combinators
// (Chain, WithProbability) are excluded: their draw behaviour is their
// wrapped mutators' plus their own gate, so no trace pins them directly.
func RegisteredOperators() []any {
	return []any{
		// Selection.
		Tournament{}, Roulette{}, LinearRank{}, Truncation{}, Random{}, Best{},
		// Crossover (bit/real/permutation, then word-granular).
		OnePoint{}, TwoPoint{}, KPoint{}, Uniform{}, Arithmetic{}, BLX{},
		SBX{}, OX{}, PMX{}, CX{}, ERX{}, UniformWord{}, KPointWord{},
		// Mutation.
		BitFlip{}, Gaussian{}, Polynomial{}, UniformReset{}, Swap{},
		Inversion{}, Scramble{}, Insertion{}, BlockFlip{},
	}
}

// OperatorTypeName renders an operator's bare type name ("KPoint" for
// operators.KPoint or *operators.KPoint) — the identity golden scenarios
// are keyed by.
func OperatorTypeName(op any) string {
	name := strings.TrimPrefix(fmt.Sprintf("%T", op), "*")
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		name = name[i+1:]
	}
	return name
}
