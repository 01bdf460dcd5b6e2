package sched

import (
	"fmt"
	"math/bits"
	"strings"
)

// All-to-all schedules move a P²-sized block space: block s*P+d is the data
// rank s addresses to rank d. Every rank starts holding its slab of P
// outgoing blocks (InitSlab) and must end holding the P blocks addressed to
// it — the VerifyAlltoall contract. Payload sizing follows the per-pair
// convention: the priced block is payload/P bytes, so table entries keyed on
// per-pair size transfer across rank counts.

// pairBlock returns the block id of rank src's data addressed to rank dst.
func pairBlock(src, dst, p int) int32 { return int32(src*p + dst) }

// PairwiseAlltoall builds the pairwise-exchange all-to-all: P-1 stages, in
// stage k every rank exchanges one per-pair block with a single partner —
// XOR partnering (i^k) when P is a power of two, shifted partnering
// ((i+k) mod P) otherwise. Minimal message count per rank, every payload
// travels exactly one (logical) hop.
func PairwiseAlltoall(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: pairwise-alltoall needs p > 0, got %d", p)
	}
	s := &Schedule{Name: "pairwise-alltoall", P: p, Blocks: p * p, Init: InitSlab}
	pow2 := p&(p-1) == 0
	for k := 1; k < p; k++ {
		st := Stage{Transfers: make([]Transfer, 0, p)}
		for i := 0; i < p; i++ {
			dst := (i + k) % p
			if pow2 {
				dst = i ^ k
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(i), Dst: int32(dst),
				First: pairBlock(i, dst, p), N: 1, Mode: Range,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// BruckAlltoall builds the Bruck (logarithmic) all-to-all: ceil(log2 P)
// rounds, in round k every rank i bundles every held block whose relative
// offset j = (dst-src) mod P has bit k set and ships the bundle to
// (i+2^k) mod P. Block (s,d) starts at s, is relayed through the ranks
// (s + (j mod 2^k)) mod P, and lands at d once every set bit of j has been
// applied. Each bundle is a non-contiguous block set, expressed as a List
// transfer. Fewest rounds of any all-to-all here, at ~log2(P)/2 times the
// traffic volume of pairwise exchange.
func BruckAlltoall(p int) (*Schedule, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: bruck-alltoall needs p > 0, got %d", p)
	}
	s := &Schedule{Name: "bruck-alltoall", P: p, Blocks: p * p, Init: InitSlab}
	for k := 0; 1<<k < p; k++ {
		bit := 1 << k
		// moving[h] collects the blocks rank h holds before round k and must
		// forward: every (src, j) with bit k of j set, held at
		// (src + (j mod 2^k)) mod p. Iterating src-major yields each list in
		// ascending block order for src-ordered determinism.
		moving := make([][]int32, p)
		for src := 0; src < p; src++ {
			for j := 1; j < p; j++ {
				if j&bit == 0 {
					continue
				}
				holder := (src + j&(bit-1)) % p
				moving[holder] = append(moving[holder], pairBlock(src, (src+j)%p, p))
			}
		}
		st := Stage{Transfers: make([]Transfer, 0, p)}
		for h := 0; h < p; h++ {
			if len(moving[h]) == 0 {
				continue
			}
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(h), Dst: int32((h + bit) % p),
				N: int32(len(moving[h])), Mode: List, Blocks: moving[h],
			})
		}
		if len(st.Transfers) > 0 {
			s.Stages = append(s.Stages, st)
		}
	}
	return s, nil
}

// dimsName renders torus dimensions as "4x4x2".
func dimsName(dims []int) string {
	parts := make([]string, len(dims))
	for i, n := range dims {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, "x")
}

// dimsRanks validates torus dimensions and returns their product.
func dimsRanks(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("sched: torus builder needs at least one dimension")
	}
	p := 1
	for _, n := range dims {
		if n <= 0 {
			return 0, fmt.Errorf("sched: torus dimension %d is not positive", n)
		}
		p *= n
	}
	return p, nil
}

// dimStride returns the rank-space stride of dimension d under the
// x-fastest mixed-radix numbering rank = c0 + n0*(c1 + n1*(c2 + ...)).
func dimStride(dims []int, d int) int {
	s := 1
	for e := 0; e < d; e++ {
		s *= dims[e]
	}
	return s
}

// dimCoord extracts rank r's coordinate in dimension d.
func dimCoord(r int, dims []int, d int) int {
	return r / dimStride(dims, d) % dims[d]
}

// withDimCoord returns r with its dimension-d coordinate replaced by c
// (taken modulo the dimension size).
func withDimCoord(r int, dims []int, d, c int) int {
	stride := dimStride(dims, d)
	c = ((c % dims[d]) + dims[d]) % dims[d]
	return r + (c-dimCoord(r, dims, d))*stride
}

// TorusRRAlltoall builds the direct-connect round-robin all-to-all for a
// d-dimensional torus whose ranks are numbered x-fastest over dims (the
// blocked layout of a torus cluster: dims[0] may be the intra-node core
// count). The schedule corrects one dimension at a time; within a dimension
// of size n it runs floor(n/2) rounds in which every in-transit block steps
// one ring hop toward its target — blocks with forward offset f move in
// rounds 1..f on the +direction link, blocks with backward offset b move in
// rounds 1..b on the -direction link. Each rank therefore sends at most one
// +direction and one -direction message per round, so with one rank per
// torus node every directed link carries at most one message per stage:
// the rounds are link-disjoint, the property that makes direct-connect
// schedules beat fat-tree-heuristic all-to-alls on tori.
func TorusRRAlltoall(dims []int) (*Schedule, error) {
	p, err := dimsRanks(dims)
	if err != nil {
		return nil, err
	}
	s := &Schedule{
		Name: "torus-rr-alltoall-" + dimsName(dims),
		P:    p, Blocks: p * p, Init: InitSlab,
	}
	// coord[r] and low[r] are rank r's coordinate in the dimension at hand
	// and its digits below it, tabulated per dimension so that the per-pair
	// loop below is adds and compares only.
	coord, low := make([]int, p), make([]int, p)
	cursor := make([]int, 2*p)
	stride := 1
	for _, n := range dims {
		if n == 1 {
			continue
		}
		for r := 0; r < p; r++ {
			coord[r], low[r] = r/stride%n, r%stride
		}
		// A block is in transit on the + ring in round t when its forward
		// offset f (1..n/2) is >= t, on the - ring when its backward offset
		// b (1..(n-1)/2) is >= t. The rank holding it fixes the sender's
		// coordinate here and above and the target's digits below; the rest
		// are free, so every rank ships exactly nf forward and nb backward
		// blocks and one exact allocation backs the stage's block lists.
		free := p / n
		for t := 1; t*2 <= n; t++ {
			nf, nb := free*(n/2-t+1), 0
			if b := (n - 1) / 2; b >= t {
				nb = free * (b - t + 1)
			}
			blocks := make([]int32, p*(nf+nb))
			for h := 0; h < p; h++ {
				cursor[2*h] = h * (nf + nb)
				cursor[2*h+1] = h*(nf+nb) + nf
			}
			// src-major, dst-minor iteration keeps every list ascending.
			for src := 0; src < p; src++ {
				cs := coord[src]
				// The block has corrected the dimensions below (the holder
				// carries dst's low digits) and stepped t-1 hops here.
				fwdAt := src - low[src] + ((cs+t-1)%n-cs)*stride
				bwdAt := src - low[src] + ((cs-t+1+n)%n-cs)*stride
				blk := int32(src * p)
				for dst := 0; dst < p; dst, blk = dst+1, blk+1 {
					delta := coord[dst] - cs
					if delta < 0 {
						delta += n
					}
					var at int
					switch {
					case delta*2 <= n: // forward, n/2 tie included
						if t > delta {
							continue // arrived (or never left) in this dimension
						}
						at = 2 * (fwdAt + low[dst])
					case t > n-delta:
						continue
					default:
						at = 2*(bwdAt+low[dst]) + 1
					}
					blocks[cursor[at]] = blk
					cursor[at]++
				}
			}
			st := Stage{Transfers: make([]Transfer, 0, 2*p)}
			for h := 0; h < p; h++ {
				c, at := coord[h], h*(nf+nb)
				st.Transfers = append(st.Transfers, Transfer{
					Src: int32(h), Dst: int32(h + ((c+1)%n-c)*stride),
					N: int32(nf), Mode: List, Blocks: blocks[at : at+nf : at+nf],
				})
				if nb > 0 {
					st.Transfers = append(st.Transfers, Transfer{
						Src: int32(h), Dst: int32(h + ((c+n-1)%n-c)*stride),
						N: int32(nb), Mode: List, Blocks: blocks[at+nf : at+nf+nb : at+nf+nb],
					})
				}
			}
			s.Stages = append(s.Stages, st)
		}
		stride *= n
	}
	return s, nil
}

// TorusDimwiseAllgather builds the dimension-wise ring allgather on a torus:
// one pipelined ring phase per dimension, each rank forwarding its
// accumulated contiguous slab to its +1 neighbor in that dimension for
// n_d - 1 repeats (Latest mode). After phase d every rank holds the blocks
// of all ranks agreeing with it on dimensions > d — a contiguous range
// under x-fastest numbering — so the final phase leaves everyone with all P
// blocks. Every hop is a single +direction torus link.
func TorusDimwiseAllgather(dims []int) (*Schedule, error) {
	p, err := dimsRanks(dims)
	if err != nil {
		return nil, err
	}
	s := &Schedule{Name: "torus-dimwise-allgather-" + dimsName(dims), P: p}
	for d, n := range dims {
		if n == 1 {
			continue
		}
		slab := dimStride(dims, d) // blocks held entering phase d
		st := Stage{Repeat: n - 1, Transfers: make([]Transfer, 0, p)}
		for r := 0; r < p; r++ {
			st.Transfers = append(st.Transfers, Transfer{
				Src: int32(r), Dst: int32(withDimCoord(r, dims, d, dimCoord(r, dims, d)+1)),
				First: int32(r - r%slab), N: int32(slab), Mode: Latest,
			})
		}
		s.Stages = append(s.Stages, st)
	}
	return s, nil
}

// TorusDimwiseAllreduce builds the dimension-wise recursive-doubling
// allreduce on a torus with power-of-two dimensions: within each dimension,
// log2(n_d) exchange-and-combine rounds pair ranks whose dimension-d
// coordinates differ in one bit. Contribution sets stay disjoint per
// exchange, so the reduction absorbs each rank's input exactly once.
func TorusDimwiseAllreduce(dims []int) (*Schedule, error) {
	p, err := dimsRanks(dims)
	if err != nil {
		return nil, err
	}
	for _, n := range dims {
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("sched: torus-dimwise-allreduce needs power-of-two dimensions, got %d", n)
		}
	}
	s := &Schedule{
		Name: "torus-dimwise-allreduce-" + dimsName(dims),
		P:    p, Blocks: 1, Init: InitAll,
	}
	for d, n := range dims {
		for k := 0; k < bits.Len(uint(n))-1; k++ {
			st := Stage{Reduce: true, Transfers: make([]Transfer, 0, p)}
			for r := 0; r < p; r++ {
				partner := withDimCoord(r, dims, d, dimCoord(r, dims, d)^(1<<k))
				st.Transfers = append(st.Transfers, Transfer{
					Src: int32(r), Dst: int32(partner), First: 0, N: 1, Mode: Range,
				})
			}
			s.Stages = append(s.Stages, st)
		}
	}
	return s, nil
}
