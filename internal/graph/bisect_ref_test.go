package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// refBisect and refInsertTopD are the bisection as it stood before the
// Bisector: a per-call map index, an O(n·sizeA) region-growing scan, D-values
// recomputed after every swap and every candidate pair priced. They are kept
// verbatim as the reference TestBisectMatchesReference and
// FuzzBisectEquivalence compare the Bisector against; edit neither.

// refBisect partitions the vertex subset verts of g into two parts where the
// first has exactly sizeA elements, attempting to minimise the weight of
// edges crossing the parts. It uses greedy region growing from the heaviest
// vertex followed by bounded Kernighan–Lin swap refinement — the classic
// recipe of recursive-bipartitioning mappers such as Scotch.
//
// Edges leaving the subset are ignored. The input slice is not modified.
func refBisect(g *Graph, verts []int, sizeA int) (a, b []int) {
	n := len(verts)
	if sizeA <= 0 {
		return nil, append([]int(nil), verts...)
	}
	if sizeA >= n {
		return append([]int(nil), verts...), nil
	}

	// Local index space over the subset.
	local := make(map[int]int, n)
	for i, v := range verts {
		local[v] = i
	}
	// conn[i][j] unpacked lazily through adjacency: we only need, per local
	// vertex, its weighted connections into the subset.
	type ledge struct {
		to int
		w  int64
	}
	ladj := make([][]ledge, n)
	for i, v := range verts {
		for _, e := range g.Neighbors(v) {
			if j, ok := local[e.To]; ok {
				ladj[i] = append(ladj[i], ledge{j, e.W})
			}
		}
	}

	inA := make([]bool, n)

	// Greedy growing: seed with the locally heaviest vertex, then add the
	// outside vertex with the strongest connection to the region.
	seed := 0
	var bestDeg int64 = -1
	for i := range ladj {
		var deg int64
		for _, e := range ladj[i] {
			deg += e.w
		}
		if deg > bestDeg {
			seed, bestDeg = i, deg
		}
	}
	toA := make([]int64, n) // connection weight into current region A
	inA[seed] = true
	for _, e := range ladj[seed] {
		toA[e.to] += e.w
	}
	for size := 1; size < sizeA; size++ {
		pick, best := -1, int64(-1)
		for i := 0; i < n; i++ {
			if !inA[i] && toA[i] > best {
				pick, best = i, toA[i]
			}
		}
		inA[pick] = true
		for _, e := range ladj[pick] {
			toA[e.to] += e.w
		}
	}

	// KL refinement. D-values: external - internal connection weight.
	dval := make([]int64, n)
	computeD := func() {
		for i := 0; i < n; i++ {
			var ext, int_ int64
			for _, e := range ladj[i] {
				if inA[e.to] == inA[i] {
					int_ += e.w
				} else {
					ext += e.w
				}
			}
			dval[i] = ext - int_
		}
	}
	weightBetween := func(i, j int) int64 {
		for _, e := range ladj[i] {
			if e.to == j {
				return e.w
			}
		}
		return 0
	}
	locked := make([]bool, n)
	for pass := 0; pass < klPasses; pass++ {
		computeD()
		for i := range locked {
			locked[i] = false
		}
		type swap struct{ a, b int }
		var seq []swap
		var cum, bestCum int64
		bestK := -1
		candA := make([]int, 0, klCandidates)
		candB := make([]int, 0, klCandidates)
		for step := 0; step < klSwapsPerPass; step++ {
			// Candidate vertices: the highest-D unlocked vertices per side.
			candA, candB = candA[:0], candB[:0]
			for i := 0; i < n; i++ {
				if locked[i] {
					continue
				}
				cand := &candB
				if inA[i] {
					cand = &candA
				}
				refInsertTopD(cand, dval, i, klCandidates)
			}
			// Best swap pair among the candidates by KL gain.
			sa, sb, sg := -1, -1, int64(0)
			found := false
			for _, i := range candA {
				for _, j := range candB {
					gain := dval[i] + dval[j] - 2*weightBetween(i, j)
					if !found || gain > sg {
						sa, sb, sg, found = i, j, gain, true
					}
				}
			}
			if !found {
				break
			}
			// Tentatively swap, lock, update D-values.
			inA[sa], inA[sb] = false, true
			locked[sa], locked[sb] = true, true
			for _, pair := range [2]int{sa, sb} {
				for _, e := range ladj[pair] {
					if locked[e.to] {
						continue
					}
					// Recompute exactly; cheaper incremental updates exist
					// but exactness keeps the invariant simple.
					var ext, int_ int64
					for _, f := range ladj[e.to] {
						if inA[f.to] == inA[e.to] {
							int_ += f.w
						} else {
							ext += f.w
						}
					}
					dval[e.to] = ext - int_
				}
			}
			seq = append(seq, swap{sa, sb})
			cum += sg
			if cum > bestCum {
				bestCum, bestK = cum, len(seq)-1
			}
		}
		// Keep the best prefix of the swap sequence; undo the rest.
		for k := len(seq) - 1; k > bestK; k-- {
			inA[seq[k].a], inA[seq[k].b] = true, false
		}
		if bestK < 0 {
			break // no improving prefix: converged
		}
	}

	for i, v := range verts {
		if inA[i] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b
}

// refInsertTopD maintains cand as the (at most k) vertices with the largest
// D-values seen so far, in descending order.
func refInsertTopD(cand *[]int, dval []int64, v int, k int) {
	c := *cand
	pos := len(c)
	for pos > 0 && dval[c[pos-1]] < dval[v] {
		pos--
	}
	if pos >= k {
		return
	}
	if len(c) < k {
		c = append(c, 0)
	}
	copy(c[pos+1:], c[pos:])
	c[pos] = v
	*cand = c
}

// refShapes are the graph families the equivalence tests draw from, each
// built on n vertices from rng.
var refShapes = []struct {
	name  string
	build func(rng *rand.Rand, n int) *Graph
}{
	{"ring", func(_ *rand.Rand, n int) *Graph {
		g := New(n)
		for u := 0; u < n; u++ {
			mustAdd(g, u, (u+1)%n, 3)
		}
		return g
	}},
	{"hypercube", func(_ *rand.Rand, n int) *Graph {
		// Recursive doubling: the stage-s partner carries weight s.
		g := New(n)
		for s := 1; s < n; s <<= 1 {
			for i := 0; i < n; i++ {
				if j := i ^ s; j < n && i < j {
					mustAdd(g, i, j, int64(s))
				}
			}
		}
		return g
	}},
	{"ring+chords", func(rng *rand.Rand, n int) *Graph {
		// A ring plus n chords, weights 1..8.
		g := New(n)
		for u := 0; u < n; u++ {
			mustAdd(g, u, (u+1)%n, int64(1+rng.Intn(8)))
		}
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || (u+1)%n == v || (v+1)%n == u {
				v = (u + n/2) % n
			}
			mustAdd(g, u, v, int64(1+rng.Intn(8)))
		}
		return g
	}},
	{"multigraph", func(rng *rand.Rand, n int) *Graph {
		// Repeated insertions accumulate; some vertices stay isolated.
		g := New(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				mustAdd(g, u, v, int64(1+rng.Intn(3)))
			}
		}
		return g
	}},
	{"two-cliques", func(_ *rand.Rand, n int) *Graph {
		g := New(n)
		h := n / 2
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (i < h) == (j < h) {
					mustAdd(g, i, j, 10)
				}
			}
		}
		if h > 0 && h < n {
			mustAdd(g, h-1, h, 1)
		}
		return g
	}},
}

func mustAdd(g *Graph, u, v int, w int64) {
	if u != v {
		if err := g.AddEdge(u, v, w); err != nil {
			panic(err)
		}
	}
}

// TestBisectMatchesReference pins the Bisector to refBisect: the same parts
// in the same order for every shape, subset and size. Each graph's cases run
// in shuffled order on one Bisector, so scratch a previous call left behind
// (a larger subset, another sizeA) would show.
func TestBisectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type bcase struct {
		verts []int
		sizeA int
	}
	for _, shape := range refShapes {
		for _, n := range []int{1, 2, 3, 5, 8, 17, 32, 64, 100, 256, 600} {
			g := shape.build(rng, n)
			var cases []bcase
			for trial := 0; trial < 6; trial++ {
				verts := rng.Perm(n)
				switch trial {
				case 0:
					slices.Sort(verts)
				case 1:
				default:
					verts = verts[:1+rng.Intn(n)]
				}
				k := len(verts)
				for _, sizeA := range []int{0, 1, k / 2, k - 1, k, rng.Intn(k + 1)} {
					cases = append(cases, bcase{verts, sizeA})
				}
			}
			rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
			bis := NewBisector(g)
			for _, c := range cases {
				wantA, wantB := refBisect(g, c.verts, c.sizeA)
				gotA, gotB := bis.Bisect(c.verts, c.sizeA)
				if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
					t.Fatalf("%s n=%d |verts|=%d sizeA=%d: got %v | %v, reference %v | %v",
						shape.name, n, len(c.verts), c.sizeA, gotA, gotB, wantA, wantB)
				}
			}
		}
	}
}

// FuzzBisectEquivalence checks the Bisector against refBisect on a
// fuzzer-chosen graph (edge triples u, v, w), distinct vertex subset and
// sizeA. The Bisector first bisects the whole graph, so the subset's call
// runs on used scratch.
func FuzzBisectEquivalence(f *testing.F) {
	f.Add(uint8(15), []byte{0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1}, []byte{}, int16(2))
	f.Add(uint8(31), []byte{0, 5, 7, 5, 9, 2, 9, 0, 3, 1, 2, 8, 2, 9, 1}, []byte{9, 5, 0, 1, 2, 30}, int16(3))
	f.Add(uint8(63), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}, []byte{1, 3, 5, 7, 9, 11, 13, 15, 17}, int16(-1))
	f.Fuzz(func(t *testing.T, nRaw uint8, edges, subset []byte, sizeA int16) {
		n := int(nRaw) + 1
		g := New(n)
		for i := 0; i+2 < len(edges); i += 3 {
			mustAdd(g, int(edges[i])%n, int(edges[i+1])%n, int64(edges[i+2]%8)+1)
		}
		var verts []int
		seen := make([]bool, n)
		for _, b := range subset {
			if v := int(b) % n; !seen[v] {
				seen[v] = true
				verts = append(verts, v)
			}
		}
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		if len(verts) == 0 {
			verts = all
		}
		bis := NewBisector(g)
		for _, c := range []struct {
			verts []int
			sizeA int
		}{{all, n / 2}, {verts, int(sizeA)}} {
			wantA, wantB := refBisect(g, c.verts, c.sizeA)
			gotA, gotB := bis.Bisect(c.verts, c.sizeA)
			if !slices.Equal(gotA, wantA) || !slices.Equal(gotB, wantB) {
				t.Fatalf("verts=%v sizeA=%d: got %v | %v, reference %v | %v",
					c.verts, c.sizeA, gotA, gotB, wantA, wantB)
			}
		}
	})
}
