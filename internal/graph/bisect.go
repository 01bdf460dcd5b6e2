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

// Bisector partitions vertex subsets of one graph into two parts,
// attempting to minimise the weight of edges crossing them: greedy region
// growing from the heaviest vertex, then bounded Kernighan–Lin swap
// refinement — the classic recipe of recursive-bipartitioning mappers such
// as Scotch. Its scratch is sized to the graph once and reused, so the
// bisections of one mapping allocate only their results. A Bisector is not
// safe for concurrent use; any number of them may share a graph.
type Bisector struct {
	g     *Graph
	local []int32 // graph vertex -> 1 + subset index while loading, else 0
	// The subset's adjacency as compressed rows: local vertex i's edges
	// are to[off[i]:off[i+1]], weighing w[off[i]:off[i+1]].
	off, to      []int32
	w            []int64
	inA, locked  []bool
	toA, dval    []int64 // connection weight into region A; KL D-value
	wrow         []int64 // a candidate's edge weights while it is priced, else 0
	heap         []growEntry
	seq          [][2]int
	candA, candB []int
}

// growEntry is a region-growing heap entry: v's connection into the region
// was toA when it was pushed.
type growEntry struct {
	toA int64
	v   int32
}

// NewBisector returns a Bisector over g.
func NewBisector(g *Graph) *Bisector {
	n := g.N()
	return &Bisector{
		g: g, local: make([]int32, n), off: make([]int32, n+1),
		inA: make([]bool, n), locked: make([]bool, n),
		toA: make([]int64, n), dval: make([]int64, n), wrow: make([]int64, n),
		candA: make([]int, 0, klCandidates), candB: make([]int, 0, klCandidates),
	}
}

// Bisect partitions the vertex subset verts (distinct vertices of the graph)
// into two parts where the first has exactly sizeA elements, each part
// listed in the order of verts.
//
// Edges leaving the subset are ignored. The input slice is not modified.
func (s *Bisector) Bisect(verts []int, sizeA int) (a, b []int) {
	n := len(verts)
	if sizeA <= 0 {
		return nil, append([]int(nil), verts...)
	}
	if sizeA >= n {
		return append([]int(nil), verts...), nil
	}
	s.load(verts)
	s.grow(n, sizeA)
	s.refine(n)

	// Growing fills A to sizeA and every swap keeps it there.
	out := make([]int, n)
	a, b = out[:0:sizeA], out[sizeA:sizeA]
	for i, v := range verts {
		if s.inA[i] {
			a = append(a, v)
		} else {
			b = append(b, v)
		}
	}
	return a, b
}

// load builds the subset's local adjacency.
func (s *Bisector) load(verts []int) {
	for i, v := range verts {
		s.local[v] = int32(i + 1)
	}
	s.to, s.w = s.to[:0], s.w[:0]
	for i, v := range verts {
		s.off[i] = int32(len(s.to))
		for _, e := range s.g.adj[v] {
			if j := s.local[e.To]; j != 0 {
				s.to = append(s.to, j-1)
				s.w = append(s.w, e.W)
			}
		}
	}
	s.off[len(verts)] = int32(len(s.to))
	for _, v := range verts {
		s.local[v] = 0
	}
}

// grow seeds region A with the locally heaviest vertex, then adds the
// outside vertex with the strongest connection to the region until A holds
// sizeA vertices; ties go to the lowest index.
func (s *Bisector) grow(n, sizeA int) {
	clear(s.inA[:n])
	clear(s.toA[:n])
	seed, bestDeg := 0, int64(-1)
	for i := 0; i < n; i++ {
		var deg int64
		for k := s.off[i]; k < s.off[i+1]; k++ {
			deg += s.w[k]
		}
		if deg > bestDeg {
			seed, bestDeg = i, deg
		}
	}
	s.addToA(seed)
	// A max-heap on (toA desc, index asc). Weights are positive, so each
	// change of toA[v] raises it and pushes an entry for v that outranks
	// v's older ones: v's first entry to surface is current, the rest are
	// stale and find v already in A.
	h := s.heap[:0]
	for i := 0; i < n; i++ {
		if i != seed {
			h = append(h, growEntry{s.toA[i], int32(i)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for size := 1; size < sizeA; {
		v := h[0].v
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		if s.inA[v] {
			continue
		}
		size++
		s.addToA(int(v))
		for k := s.off[v]; k < s.off[v+1]; k++ {
			if u := s.to[k]; !s.inA[u] {
				h = append(h, growEntry{s.toA[u], u})
				siftUp(h, len(h)-1)
			}
		}
	}
	s.heap = h
}

func (s *Bisector) addToA(v int) {
	s.inA[v] = true
	for k := s.off[v]; k < s.off[v+1]; k++ {
		s.toA[s.to[k]] += s.w[k]
	}
}

// before orders the growing heap: larger toA first, then lower index.
func before(x, y growEntry) bool {
	return x.toA > y.toA || (x.toA == y.toA && x.v < y.v)
}

// siftUp and siftDown restore the heap order after h[i] changed.
func siftUp(h []growEntry, i int) {
	for ; i > 0 && before(h[i], h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func siftDown(h []growEntry, i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h) && before(h[c+1], h[c]) {
			c++
		}
		if c >= len(h) || !before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// refine runs the bounded KL passes on the grown partition. D-values are
// external minus internal connection weight.
func (s *Bisector) refine(n int) {
	inA, locked, dval, wrow := s.inA, s.locked, s.dval, s.wrow
	for pass := 0; pass < klPasses; pass++ {
		for i := 0; i < n; i++ {
			var d int64
			for k := s.off[i]; k < s.off[i+1]; k++ {
				if inA[s.to[k]] == inA[i] {
					d -= s.w[k]
				} else {
					d += s.w[k]
				}
			}
			dval[i] = d
		}
		clear(locked[:n])
		seq := s.seq[:0]
		var cum, bestCum int64
		bestK := -1
		for step := 0; step < klSwapsPerPass; step++ {
			// Candidate vertices: the highest-D unlocked vertices per side.
			candA, candB := s.candA[:0], s.candB[:0]
			for i := 0; i < n; i++ {
				if locked[i] {
					continue
				}
				if inA[i] {
					insertTopD(&candA, dval, i, klCandidates)
				} else {
					insertTopD(&candB, dval, i, klCandidates)
				}
			}
			// Best swap pair by KL gain, the first met on ties; wrow holds
			// row i's edge weights while its pairs are priced. Both lists
			// descend in D and a gain is at most dval[i]+dval[j] (weights
			// are positive), so once that sum cannot beat the best gain,
			// no later pair of the row can, nor any later row.
			sa, sb, sg := -1, -1, int64(0)
			found := false
			for _, i := range candA {
				if found && dval[i]+dval[candB[0]] <= sg {
					break
				}
				for k := s.off[i]; k < s.off[i+1]; k++ {
					wrow[s.to[k]] = s.w[k]
				}
				for _, j := range candB {
					if found && dval[i]+dval[j] <= sg {
						break
					}
					gain := dval[i] + dval[j] - 2*wrow[j]
					if !found || gain > sg {
						sa, sb, sg, found = i, j, gain, true
					}
				}
				for k := s.off[i]; k < s.off[i+1]; k++ {
					wrow[s.to[k]] = 0
				}
			}
			if !found {
				break
			}
			// Tentatively swap, lock, update the unlocked neighbours' D.
			inA[sa], inA[sb] = false, true
			locked[sa], locked[sb] = true, true
			s.moved(sa)
			s.moved(sb)
			seq = append(seq, [2]int{sa, sb})
			cum += sg
			if cum > bestCum {
				bestCum, bestK = cum, len(seq)-1
			}
		}
		// Keep the best prefix of the swap sequence; undo the rest.
		for k := len(seq) - 1; k > bestK; k-- {
			inA[seq[k][0]], inA[seq[k][1]] = true, false
		}
		s.seq = seq
		if bestK < 0 {
			break // no improving prefix: converged
		}
	}
}

// moved updates the D-values of v's unlocked neighbours after v changed
// sides: an edge that became internal costs 2w, one that became external
// gains 2w.
func (s *Bisector) moved(v int) {
	for k := s.off[v]; k < s.off[v+1]; k++ {
		u := s.to[k]
		if s.locked[u] {
			continue
		}
		if s.inA[u] == s.inA[v] {
			s.dval[u] -= 2 * s.w[k]
		} else {
			s.dval[u] += 2 * s.w[k]
		}
	}
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
