package graph

// The work bounds of the Kernighan–Lin-style refinement.
const (
	// klPasses is the number of KL refinement passes.
	klPasses = 2
	// klSwapsPerPass caps the swap sequence explored in one pass. Classic
	// KL explores n/2 swaps, which is cubic overall; the cap keeps large
	// bisections tractable while preserving most of the cut improvement.
	klSwapsPerPass = 128
	// klCandidates restricts each swap step to the highest-gain vertices
	// per side, the usual KL/FM speedup.
	klCandidates = 24
)

// Bisect partitions the vertex subset verts of g into two parts where the
// first has exactly sizeA elements, attempting to minimise the weight of
// edges crossing the parts. It uses greedy region growing from the heaviest
// vertex followed by bounded Kernighan–Lin swap refinement — the classic
// recipe of recursive-bipartitioning mappers such as Scotch.
//
// Edges leaving the subset are ignored. The input slice is not modified.
func Bisect(g *Graph, verts []int, sizeA int) (a, b []int) {
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
				insertTopD(cand, dval, i, klCandidates)
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

// insertTopD maintains cand as the (at most k) vertices with the largest
// D-values seen so far, in descending order.
func insertTopD(cand *[]int, dval []int64, v int, k int) {
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
