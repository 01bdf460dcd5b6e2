// Package sched represents collective communication algorithms as static
// schedules: sequences of stages, each a set of point-to-point transfers
// between ranks. The allgather algorithms of the paper (recursive doubling,
// ring, Bruck, the three-phase hierarchical composition, and the binomial /
// linear gather and broadcast building blocks) are all data-independent, so
// their complete communication structure is known up front.
//
// Schedules serve two masters with a single source of truth:
//
//   - the contention-aware cost model (package simnet) prices a schedule
//     under a given process layout and message size, and
//   - the block-tracking verifier in this package replays a schedule to
//     prove that it implements its collective semantics (every rank ends
//     with every block, in order).
//
// Rank reordering never changes a schedule — it changes which core each
// rank lives on. The order-preservation mechanisms of paper Section V-B
// (extra initial communications, memory shuffling at the end) attach to a
// schedule as a priced prologue stage or epilogue copy.
package sched

import "fmt"

// Mode describes which blocks a transfer carries, for verification replay.
type Mode uint8

const (
	// Range sends the contiguous (modulo P) block range [First, First+N).
	Range Mode = iota
	// All sends every block the sender currently holds. N still records
	// the statically known block count for pricing.
	All
	// Latest forwards the blocks most recently received by the sender —
	// ring pipelining. On the first repeat the sender has received nothing
	// yet and transmits the range [First, First+N) instead, which it must
	// already hold.
	Latest
	// List sends the explicit block set Transfer.Blocks. All-to-all
	// schedules move non-contiguous per-pair blocks (Bruck rounds bundle
	// every block whose relative offset has a given bit set), which no
	// modulo range expresses. N must equal len(Blocks) so pricing reads the
	// message size without touching the list.
	List
)

// InitKind declares a schedule's initial block distribution, which seeds
// both verification replay and the executor's notion of which blocks a rank
// may legally send before receiving anything.
type InitKind uint8

const (
	// InitOwn: rank r initially holds block r (allgather family). This is
	// the zero value so existing schedules keep their meaning.
	InitOwn InitKind = iota
	// InitRoot: Root initially holds every block, all other ranks hold
	// nothing (scatter, chunked broadcast).
	InitRoot
	// InitAll: every rank initially holds every block (reduce-style
	// schedules, where "holding" a block means holding a partial sum
	// for it).
	InitAll
	// InitSizedOnly: the schedule is priced but has no executable initial
	// condition (order-fix prologues, pricing-only phase schedules).
	InitSizedOnly
	// InitSlab: rank r initially holds the contiguous slab
	// [r*(Blocks/P), (r+1)*(Blocks/P)) — the all-to-all convention where
	// the block space is P² per-pair blocks and rank r starts with the P
	// blocks it addresses to everyone. Requires Blocks divisible by P.
	InitSlab
)

func (k InitKind) String() string {
	switch k {
	case InitOwn:
		return "own"
	case InitRoot:
		return "root"
	case InitAll:
		return "all"
	case InitSizedOnly:
		return "sized-only"
	case InitSlab:
		return "slab"
	}
	return "unknown"
}

// Transfer is one point-to-point message of a stage. Src and Dst are ranks
// in the collective's rank space; N is the number of per-process data blocks
// the message carries (the byte size is N times the per-process message
// size, fixed at pricing time).
type Transfer struct {
	Src, Dst int32
	First    int32 // first block of a Range transfer
	N        int32 // block count (pricing and Range replay)
	Mode     Mode
	// Blocks is the explicit block set of a List transfer; nil otherwise.
	// Validate requires N == len(Blocks) so every pricing path keeps
	// reading N.
	Blocks []int32
}

// Stage is a set of transfers that proceed concurrently. A stage may repeat:
// ring-style algorithms execute the same transfer structure P-1 times with
// identical message sizes, which Repeat captures without materialising
// millions of transfers.
type Stage struct {
	Transfers []Transfer
	Repeat    int // execution count; 0 is treated as 1
	// Reduce marks a combining stage: delivered blocks are merged into the
	// receiver's copy with the collective's reduction operator instead of
	// overwriting it (Rabenseifner halving, binomial reduce).
	Reduce bool
}

// Repeats returns the effective execution count (Repeat, with 0 read as 1).
func (s *Stage) Repeats() int {
	if s.Repeat < 1 {
		return 1
	}
	return s.Repeat
}

// Schedule is a complete collective schedule over P ranks.
type Schedule struct {
	// Name identifies the generating algorithm, e.g. "ring".
	Name string
	// P is the number of ranks.
	P int
	// Pre holds prologue stages that are priced but not block-verified —
	// the "extra initial communications" of Section V-B move input vectors
	// between processes before the collective proper starts.
	Pre []Stage
	// Stages is the collective itself.
	Stages []Stage
	// PostCopyBlocks is the number of blocks every rank copies locally
	// after the last stage: P for the memory-shuffling order fix, and the
	// final rotation of the Bruck algorithm. Priced as local memory
	// bandwidth, never as network traffic.
	PostCopyBlocks int
	// Blocks is the size of the block space the schedule moves data over.
	// Zero means P (the allgather convention of one block per rank);
	// chunked broadcasts use an explicit block count independent of P.
	Blocks int
	// Init declares the initial block distribution (see InitKind).
	Init InitKind
	// Root is the distinguished rank for InitRoot schedules.
	Root int
}

// NumBlocks returns the effective block-space size (Blocks, defaulting to P).
func (s *Schedule) NumBlocks() int {
	if s.Blocks > 0 {
		return s.Blocks
	}
	return s.P
}

// Validate checks structural sanity: ranks in range, no self-transfers,
// positive block counts, positive repeats.
func (s *Schedule) Validate() error {
	if s.P <= 0 {
		return fmt.Errorf("sched: schedule %q has nonpositive P=%d", s.Name, s.P)
	}
	if s.Blocks < 0 {
		return fmt.Errorf("sched: schedule %q has negative Blocks=%d", s.Name, s.Blocks)
	}
	if s.Root < 0 || s.Root >= s.P {
		return fmt.Errorf("sched: schedule %q root %d outside 0..%d", s.Name, s.Root, s.P-1)
	}
	blocks := s.NumBlocks()
	if s.Init == InitSlab && blocks%s.P != 0 {
		return fmt.Errorf("sched: schedule %q has slab init with %d blocks not divisible by P=%d",
			s.Name, blocks, s.P)
	}
	check := func(stages []Stage, what string) error {
		for si := range stages {
			st := &stages[si]
			if st.Repeat < 0 {
				return fmt.Errorf("sched: %q %s stage %d has negative repeat", s.Name, what, si)
			}
			for _, tr := range st.Transfers {
				switch {
				case tr.Src < 0 || int(tr.Src) >= s.P || tr.Dst < 0 || int(tr.Dst) >= s.P:
					return fmt.Errorf("sched: %q %s stage %d transfer %d->%d outside 0..%d",
						s.Name, what, si, tr.Src, tr.Dst, s.P-1)
				case tr.Src == tr.Dst:
					return fmt.Errorf("sched: %q %s stage %d has self-transfer at rank %d", s.Name, what, si, tr.Src)
				case tr.N <= 0:
					return fmt.Errorf("sched: %q %s stage %d transfer %d->%d carries %d blocks",
						s.Name, what, si, tr.Src, tr.Dst, tr.N)
				case tr.Mode == List:
					if int(tr.N) != len(tr.Blocks) {
						return fmt.Errorf("sched: %q %s stage %d list transfer %d->%d has N=%d for %d listed blocks",
							s.Name, what, si, tr.Src, tr.Dst, tr.N, len(tr.Blocks))
					}
					for _, b := range tr.Blocks {
						if b < 0 || int(b) >= blocks {
							return fmt.Errorf("sched: %q %s stage %d list transfer names block %d outside 0..%d",
								s.Name, what, si, b, blocks-1)
						}
					}
				case tr.Mode != All && (tr.First < 0 || int(tr.First) >= blocks):
					return fmt.Errorf("sched: %q %s stage %d transfer starts at block %d outside 0..%d",
						s.Name, what, si, tr.First, blocks-1)
				}
			}
		}
		return nil
	}
	if err := check(s.Pre, "pre"); err != nil {
		return err
	}
	return check(s.Stages, "main")
}

// TotalBlocksMoved returns the total number of block transmissions of the
// main schedule — the traffic volume in units of the per-process message.
func (s *Schedule) TotalBlocksMoved() int64 {
	var sum int64
	for i := range s.Stages {
		st := &s.Stages[i]
		var per int64
		for _, tr := range st.Transfers {
			per += int64(tr.N)
		}
		sum += per * int64(st.Repeats())
	}
	return sum
}
