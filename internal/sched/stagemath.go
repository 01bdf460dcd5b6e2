package sched

// Peer arithmetic of the flat allgather builders.

// RingNext returns rank r's downstream ring neighbour.
func RingNext(r, p int) int { return (r + 1) % p }

// BruckStep returns the peers and block count of rank r's exchange at Bruck
// round pow (pow = 1, 2, 4, ...): r sends its first cnt blocks, in its
// rotated local order (blocks r, r+1, ... mod p), to dst and receives cnt
// blocks from src.
func BruckStep(r, pow, p int) (dst, src, cnt int) {
	cnt = pow
	if p-pow < cnt {
		cnt = p - pow
	}
	return ((r-pow)%p + p) % p, (r + pow) % p, cnt
}

// NeighborPartner returns rank r's partner at 1-based step of the
// neighbour-exchange algorithm: pairs (0,1),(2,3),... on odd steps and
// (1,2),(3,4),...,(p-1,0) on even steps.
func NeighborPartner(r, step, p int) int {
	if step%2 == 1 {
		return r ^ 1
	}
	if r%2 == 1 {
		return (r + 1) % p
	}
	return (r - 1 + p) % p
}
