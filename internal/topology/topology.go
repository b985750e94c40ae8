// Package topology implements the inter-deme communication topologies the
// survey lists in §3.2: uni- and bi-directional rings, stars, 2-D grids
// (meshes), toruses, hypercubes, fully connected graphs and random regular
// graphs, plus an isolated (edgeless) topology and a dynamic rewiring
// wrapper.
//
// A topology is a directed graph over deme indices 0..N-1: Neighbors(i)
// lists the demes that deme i sends migrants to. Cantú-Paz (2000) — the
// survey's central theory reference — showed topology choice trades
// communication cost against convergence pressure; the experiment E14
// sweeps every type defined here.
package topology

import (
	"fmt"

	"pga/internal/rng"
)

// Topology is a directed communication graph over demes.
type Topology interface {
	// Name identifies the topology in tables and logs.
	Name() string
	// Size returns the number of demes.
	Size() int
	// Neighbors returns the demes that deme i sends migrants to. The
	// returned slice must not be modified.
	Neighbors(i int) []int
}

// static is the shared implementation: a precomputed adjacency list.
type static struct {
	name string
	adj  [][]int
}

func (s *static) Name() string          { return s.name }
func (s *static) Size() int             { return len(s.adj) }
func (s *static) Neighbors(i int) []int { return s.adj[i] }

// Isolated returns the edgeless topology: no migration at all (the
// "isolated demes" arm of Cantú-Paz's comparison).
func Isolated(n int) Topology {
	return &static{name: "isolated", adj: make([][]int, n)}
}

// Ring returns a unidirectional ring: deme i sends to (i+1) mod n (a
// one-deme ring has no links).
func Ring(n int) Topology {
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = appendUnique(nil, i, (i+1)%n)
	}
	return &static{name: "ring", adj: adj}
}

// BiRing returns a bidirectional ring: deme i sends to both neighbours
// (one link on a two-deme ring, none on a one-deme ring).
func BiRing(n int) Topology {
	adj := make([][]int, n)
	for i := range adj {
		adj[i] = appendUnique(nil, i, (i+1)%n, (i+n-1)%n)
	}
	return &static{name: "bi-ring", adj: adj}
}

// Star returns a star topology: deme 0 is the hub, connected
// bidirectionally to every leaf.
func Star(n int) Topology {
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		adj[0] = append(adj[0], i)
		adj[i] = []int{0}
	}
	return &static{name: "star", adj: adj}
}

// Complete returns the fully connected topology (Cantú-Paz's
// fastest-converging case).
func Complete(n int) Topology {
	adj := make([][]int, n)
	for i := range adj {
		for j := 0; j < n; j++ {
			if j != i {
				adj[i] = append(adj[i], j)
			}
		}
	}
	return &static{name: "complete", adj: adj}
}

// Grid returns a rows×cols 2-D mesh with 4-neighbourhood and no wraparound
// (the Intel-Paragon-style grid of §3.1).
func Grid(rows, cols int) Topology {
	n := rows * cols
	adj := make([][]int, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if r > 0 {
				adj[i] = append(adj[i], (r-1)*cols+c)
			}
			if r < rows-1 {
				adj[i] = append(adj[i], (r+1)*cols+c)
			}
			if c > 0 {
				adj[i] = append(adj[i], r*cols+c-1)
			}
			if c < cols-1 {
				adj[i] = append(adj[i], r*cols+c+1)
			}
		}
	}
	return &static{name: fmt.Sprintf("grid(%dx%d)", rows, cols), adj: adj}
}

// Torus returns a rows×cols 2-D torus: a grid with wraparound links (the
// CRAY-T3D-style tore of §3.1).
func Torus(rows, cols int) Topology {
	n := rows * cols
	adj := make([][]int, n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			up := ((r-1+rows)%rows)*cols + c
			down := ((r + 1) % rows) * cols
			down += c
			left := r*cols + (c-1+cols)%cols
			right := r*cols + (c+1)%cols
			adj[i] = appendUnique(adj[i], i, up, down, left, right)
		}
	}
	return &static{name: fmt.Sprintf("torus(%dx%d)", rows, cols), adj: adj}
}

// Hypercube returns a d-dimensional hypercube over 2^d demes (Belding's
// 1989 platform, §2).
func Hypercube(d int) Topology {
	n := 1 << uint(d)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for b := 0; b < d; b++ {
			adj[i] = append(adj[i], i^(1<<uint(b)))
		}
	}
	return &static{name: fmt.Sprintf("hypercube(%d)", d), adj: adj}
}

// RandomRegular returns a random topology where every deme sends to k
// distinct others (drawn deterministically from seed).
func RandomRegular(n, k int, seed uint64) Topology {
	if k >= n {
		panic("topology: RandomRegular requires k < n")
	}
	r := rng.New(seed)
	adj := make([][]int, n)
	for i := range adj {
		for _, j := range r.Sample(n-1, k) {
			if j >= i {
				j++
			}
			adj[i] = append(adj[i], j)
		}
	}
	return &static{name: fmt.Sprintf("random(%d)", k), adj: adj}
}

// appendUnique appends values not already present, dropping self-loops
// (handles the self/dup links of small rings and of torus dimensions 1
// or 2 wide; self is the deme's own index).
func appendUnique(s []int, self int, vals ...int) []int {
	for _, v := range vals {
		if v == self {
			continue
		}
		dup := false
		for _, x := range s {
			if x == v {
				dup = true
				break
			}
		}
		if !dup {
			s = append(s, v)
		}
	}
	return s
}

// Dynamic wraps a topology generator so the graph is rewired on demand —
// the "dynamic topologies" option the survey mentions in §1.1.
type Dynamic struct {
	gen   func(seed uint64) Topology
	cur   Topology
	seed  uint64
	epoch uint64
}

// NewDynamic creates a dynamic topology from a generator (e.g. a closure
// over RandomRegular). The initial graph uses seed.
func NewDynamic(gen func(seed uint64) Topology, seed uint64) *Dynamic {
	return &Dynamic{gen: gen, cur: gen(seed), seed: seed}
}

// Name implements Topology.
func (d *Dynamic) Name() string { return "dynamic:" + d.cur.Name() }

// Size implements Topology.
func (d *Dynamic) Size() int { return d.cur.Size() }

// Neighbors implements Topology.
func (d *Dynamic) Neighbors(i int) []int { return d.cur.Neighbors(i) }

// Rewire regenerates the graph with a fresh derived seed.
func (d *Dynamic) Rewire() {
	d.epoch++
	d.cur = d.gen(d.seed + d.epoch*0x9e3779b97f4a7c15)
}

// Diameter returns the longest shortest-path (in hops) between any pair of
// demes, or -1 if the graph is not strongly connected.
func Diameter(t Topology) int {
	n := t.Size()
	max := 0
	for s := 0; s < n; s++ {
		dist := bfs(t, s)
		for _, d := range dist {
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Connected reports whether every deme can reach every other deme.
func Connected(t Topology) bool { return Diameter(t) >= 0 }

// bfs returns hop distances from s (-1 = unreachable).
func bfs(t Topology, s int) []int {
	n := t.Size()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range t.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Validate checks structural invariants: neighbour indices in range, no
// self-loops, no duplicate edges. It returns a descriptive error.
func Validate(t Topology) error {
	n := t.Size()
	for i := 0; i < n; i++ {
		seen := map[int]bool{}
		for _, j := range t.Neighbors(i) {
			if j < 0 || j >= n {
				return fmt.Errorf("topology %s: deme %d has out-of-range neighbour %d", t.Name(), i, j)
			}
			if j == i {
				return fmt.Errorf("topology %s: deme %d has a self-loop", t.Name(), i)
			}
			if seen[j] {
				return fmt.Errorf("topology %s: deme %d lists neighbour %d twice", t.Name(), i, j)
			}
			seen[j] = true
		}
	}
	return nil
}
