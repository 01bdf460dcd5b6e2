package synth

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Options tunes the beam search. The zero value selects defaults sized so
// that a search over one (family, p, payload) point stays well under a
// second for p <= 1024.
type Options struct {
	// BeamWidth is the number of best candidates mutated each round
	// (default 6).
	BeamWidth int
	// Rounds is the maximum number of mutation rounds after the seed
	// evaluation (default 2). A round that fails to improve the incumbent
	// stops the search early.
	Rounds int
	// MaxStageOpIndex bounds how many stage indices, from each end of the
	// schedule, the stage operators probe (default 4).
	MaxStageOpIndex int
	// MaxOps caps the mutation-chain length of one recipe (default 3).
	MaxOps int
}

func (o Options) withDefaults() Options {
	if o.BeamWidth <= 0 {
		o.BeamWidth = 6
	}
	if o.Rounds <= 0 {
		o.Rounds = 2
	}
	if o.MaxStageOpIndex <= 0 {
		o.MaxStageOpIndex = 4
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 3
	}
	return o
}

// Candidate is one verified, priced schedule of a search.
type Candidate struct {
	Recipe      Recipe
	Schedule    *sched.Schedule
	Fingerprint string
	// Price is the modelled time at the searched payload size.
	Price float64
	// LatPrice is the modelled time at one byte per block — the
	// latency-dominated end of the tradeoff.
	LatPrice float64
}

// Result is the outcome of one search point.
type Result struct {
	Family       Family
	P            int
	PayloadBytes int
	// Best is the cheapest candidate at the searched payload.
	Best *Candidate
	// Baseline is the hand-coded front-door selection's choice, always
	// priced for comparison (never pruned).
	Baseline *Candidate
	// Pareto is the (LatPrice, Price) pareto front over all surviving
	// candidates, ascending in LatPrice.
	Pareto []*Candidate
	// Counters for this search (also accumulated into the synth_* metrics).
	Explored, PrunedVerify, PrunedBound, PrunedShape int
	Elapsed                                          time.Duration
}

// Improvement returns the fractional price win of Best over Baseline
// (positive when the synthesized schedule is strictly cheaper).
func (r *Result) Improvement() float64 {
	if r.Best == nil || r.Baseline == nil || r.Baseline.Price == 0 {
		return 0
	}
	return 1 - r.Best.Price/r.Baseline.Price
}

// BaselineRecipe is the comparison point every search prices: the builder
// the family registry's Baseline rule names for (p, payload) — the same
// rule, through the same hook, that package collective's front doors run
// when no table entry covers a call (MVAPICH-style: ring above 1 KiB
// per-rank blocks, recursive doubling on power-of-two communicators below
// it, Bruck otherwise; Rabenseifner for large divisible power-of-two
// allreduces; Bruck for small per-pair all-to-alls).
func BaselineRecipe(f Family, p, payloadBytes int) Recipe {
	fam, err := f.Desc()
	if err != nil {
		return Recipe{}
	}
	return Recipe{Alg: fam.Baseline(p, payloadBytes)}
}

// seedRecipes enumerates the base recipes of a family, in deterministic
// order: the family's hook seeds first (hierarchical compositions,
// torus-native builders, pipelining chunk counts — the parameterised
// constructions that need machine context), then the registry's flat base
// builders.
func seedRecipes(f Family, env SeedEnv) []Recipe {
	seeds := hookSeeds(f, env)
	if fam, err := f.Desc(); err == nil {
		for _, alg := range fam.Seeds {
			seeds = append(seeds, Recipe{Alg: alg})
		}
	}
	return seeds
}

// radixCandidates derives the hierarchical group sizes worth trying on a
// machine: the socket and node core counts (the natural topology radixes),
// a node pair, and the power of two nearest sqrt(p) — filtered to proper
// divisors of p, deduplicated, ascending, at most four.
func radixCandidates(m *simnet.Machine, p int) []int {
	sqrtPow2 := 1
	for sqrtPow2*sqrtPow2 < p {
		sqrtPow2 <<= 1
	}
	raw := []int{
		m.Cluster.CoresPerSocket,
		m.Cluster.CoresPerNode(),
		2 * m.Cluster.CoresPerNode(),
		sqrtPow2,
	}
	seen := map[int]bool{}
	var out []int
	for _, g := range raw {
		if g > 1 && g < p && p%g == 0 && !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Ints(out)
	if len(out) > 4 {
		out = out[:4]
	}
	return out
}

// searcher carries one Search invocation's state.
type searcher struct {
	m       *simnet.Machine
	layout  []int
	f       Family
	p       int
	payload int
	opt     Options
	env     SeedEnv

	seen      map[string]bool // schedule fingerprints already evaluated
	cands     []*Candidate
	incumbent float64 // best Price so far (+Inf until first survivor)
	bestLat   float64 // best LatPrice so far (+Inf until first survivor)
	recvBuf   []int64 // scratch for lowerBound

	explored, prunedVerify, prunedBound, prunedShape int
}

// Search explores the schedule space for one (family, rank count, payload)
// point on machine m with ranks placed by layout (nil selects the identity
// blocked placement on cores 0..p-1). It returns the pareto front, the
// cheapest candidate, and the priced hand-coded baseline.
func Search(m *simnet.Machine, layout []int, f Family, p, payloadBytes int, opt Options) (*Result, error) {
	start := time.Now()
	opt = opt.withDefaults()
	if p <= 0 {
		return nil, fmt.Errorf("synth: rank count must be positive, got %d", p)
	}
	if payloadBytes <= 0 {
		return nil, fmt.Errorf("synth: payload must be positive, got %d", payloadBytes)
	}
	if layout == nil {
		if p > m.Cluster.TotalCores() {
			return nil, fmt.Errorf("synth: %d ranks exceed the machine's %d cores", p, m.Cluster.TotalCores())
		}
		layout = make([]int, p)
		for r := range layout {
			layout[r] = r
		}
	}
	if len(layout) < p {
		return nil, fmt.Errorf("synth: layout covers %d ranks, search needs %d", len(layout), p)
	}

	env := SeedEnv{P: p, PayloadBytes: payloadBytes, GroupSizes: radixCandidates(m, p)}
	if dims, ok := topology.TorusRankDims(m.Cluster, p); ok {
		env.TorusDims = dims
	}
	s := &searcher{
		m: m, layout: layout, f: f, p: p, payload: payloadBytes, opt: opt, env: env,
		seen: make(map[string]bool), incumbent: inf(), bestLat: inf(),
	}

	// The baseline is priced first and unconditionally: it seeds the
	// incumbent for bound pruning and is the comparison point the table
	// stores.
	baseline, err := s.evaluate(BaselineRecipe(f, p, payloadBytes), false)
	if err != nil {
		return nil, fmt.Errorf("synth: baseline for %v p=%d: %w", f, p, err)
	}

	for _, r := range seedRecipes(f, env) {
		s.evaluate(r, true) //nolint:errcheck — pruned candidates are counted, not fatal
	}

	beam := s.topK(opt.BeamWidth)
	for round := 0; round < opt.Rounds; round++ {
		improvedFrom := s.incumbent
		for _, b := range beam {
			for _, mut := range s.mutations(b) {
				s.evaluate(mut, true) //nolint:errcheck
			}
		}
		beam = s.topK(opt.BeamWidth)
		if !(s.incumbent < improvedFrom) {
			break
		}
	}

	res := &Result{
		Family: f, P: p, PayloadBytes: payloadBytes,
		Baseline: baseline,
		Best:     s.best(),
		Pareto:   s.pareto(),
		Explored: s.explored, PrunedVerify: s.prunedVerify,
		PrunedBound: s.prunedBound, PrunedShape: s.prunedShape,
		Elapsed: time.Since(start),
	}
	synthSearchSeconds.Observe(res.Elapsed.Seconds())
	return res, nil
}

func inf() float64 { return 1e308 }

// evaluate materialises, verifies, bounds and prices one recipe. With prune
// set, verify/bound failures are counted and swallowed; the baseline runs
// with prune=false so that a broken baseline surfaces as an error.
func (s *searcher) evaluate(r Recipe, prune bool) (*Candidate, error) {
	synthCandidates.Inc()
	sch, err := r.Materialize(s.f, s.p)
	if err != nil {
		s.prunedShape++
		synthPrunedShape.Inc()
		return nil, err
	}
	fp := sched.Fingerprint(sch)
	if s.seen[fp] {
		return nil, nil // structurally identical to an evaluated candidate
	}
	s.seen[fp] = true
	s.explored++
	if err := s.f.Verify(sch); err != nil {
		if prune {
			s.prunedVerify++
			synthPrunedVerify.Inc()
			return nil, err
		}
		return nil, err
	}
	blockBytes, err := s.f.BlockBytes(sch, s.payload)
	if err != nil {
		s.prunedShape++
		synthPrunedShape.Inc()
		return nil, err
	}
	// Dominance pruning: a candidate whose admissible lower bound beats
	// neither the best target-payload price nor the best latency price can
	// land on neither end of the pareto front, so it is dropped unpriced.
	if prune && s.incumbent < inf() {
		if s.lowerBound(sch, blockBytes) >= s.incumbent && s.lowerBound(sch, 1) >= s.bestLat {
			s.prunedBound++
			synthPrunedBound.Inc()
			return nil, nil
		}
	}
	// One contention profile prices both ends of the pareto front: the
	// candidate was just deduplicated by fingerprint, so a compile-cache
	// lookup here could only ever miss.
	prof, err := s.m.ProfileSchedule(context.Background(), sch, s.layout)
	var price float64
	if err == nil {
		price, err = prof.Price(blockBytes)
	}
	if err != nil {
		s.prunedShape++
		synthPrunedShape.Inc()
		return nil, err
	}
	lat, err := prof.Price(1)
	if err != nil {
		return nil, err
	}
	c := &Candidate{Recipe: r, Schedule: sch, Fingerprint: fp, Price: price, LatPrice: lat}
	s.cands = append(s.cands, c)
	if price < s.incumbent {
		s.incumbent = price
	}
	if lat < s.bestLat {
		s.bestLat = lat
	}
	return c, nil
}

// lowerBound returns an admissible lower bound on a schedule's price: every
// executed stage with transfers costs at least the cheapest channel alpha,
// and every rank must absorb its received bytes at no more than the fastest
// per-stream bandwidth (endpoint serialisation only raises the true cost).
func (s *searcher) lowerBound(sch *sched.Schedule, blockBytes int) float64 {
	p := &s.m.Params
	minAlpha := p.AlphaShm
	if p.AlphaQPI < minAlpha {
		minAlpha = p.AlphaQPI
	}
	if p.AlphaNet < minAlpha {
		minAlpha = p.AlphaNet
	}
	maxStream := p.StreamShm
	if p.StreamQPI > maxStream {
		maxStream = p.StreamQPI
	}
	if p.StreamNet > maxStream {
		maxStream = p.StreamNet
	}
	if cap(s.recvBuf) < sch.P {
		s.recvBuf = make([]int64, sch.P)
	}
	recv := s.recvBuf[:sch.P]
	for i := range recv {
		recv[i] = 0
	}
	stages := 0
	count := func(list []sched.Stage) {
		for i := range list {
			st := &list[i]
			if len(st.Transfers) == 0 {
				continue
			}
			reps := st.Repeats()
			stages += reps
			for _, tr := range st.Transfers {
				recv[tr.Dst] += int64(tr.N) * int64(reps)
			}
		}
	}
	count(sch.Pre)
	count(sch.Stages)
	var maxRecv int64
	for _, v := range recv {
		if v > maxRecv {
			maxRecv = v
		}
	}
	return float64(stages)*minAlpha + float64(maxRecv)*float64(blockBytes)/maxStream
}

// mutations derives the neighbour recipes of a beam member: hierarchical
// parameter moves (toggle intra/inter kind, change radix), the family's
// registered hook operators (pipelining chunk moves), and stage operators
// probed from both ends of the schedule.
func (s *searcher) mutations(c *Candidate) []Recipe {
	out := hookMutations(s.f, s.env, c)
	r := c.Recipe
	if r.Alg == "hierarchical" {
		alt := r
		if r.Intra == "linear" {
			alt.Intra = "non-linear"
		} else {
			alt.Intra = "linear"
		}
		out = append(out, alt)
		alt = r
		if r.Inter == "ring" {
			alt.Inter = "recursive-doubling"
		} else {
			alt.Inter = "ring"
		}
		out = append(out, alt)
		for _, g := range radixCandidates(s.m, s.p) {
			if g != r.GroupSize {
				alt = r
				alt.GroupSize = g
				out = append(out, alt)
			}
		}
	}
	if len(r.Ops) >= s.opt.MaxOps {
		return out
	}
	n := len(c.Schedule.Stages)
	idx := stageOpIndices(n, s.opt.MaxStageOpIndex)
	for _, i := range idx {
		if i+1 < n {
			out = append(out,
				withOp(r, StageOp{Op: "swap", Stage: i}),
				withOp(r, StageOp{Op: "merge", Stage: i}),
			)
		}
		out = append(out, withOp(r, StageOp{Op: "split", Stage: i}))
	}
	return out
}

// withOp appends one stage op to a copy of the recipe.
func withOp(r Recipe, op StageOp) Recipe {
	ops := make([]StageOp, 0, len(r.Ops)+1)
	ops = append(ops, r.Ops...)
	ops = append(ops, op)
	r.Ops = ops
	return r
}

// stageOpIndices returns up to limit stage indices from each end of an
// n-stage schedule, ascending and deduplicated.
func stageOpIndices(n, limit int) []int {
	seen := map[int]bool{}
	var out []int
	add := func(i int) {
		if i >= 0 && i < n && !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for i := 0; i < limit; i++ {
		add(i)
	}
	for i := 0; i < limit; i++ {
		add(n - 1 - i)
	}
	sort.Ints(out)
	return out
}

// topK returns the K cheapest candidates at the searched payload,
// deterministically tie-broken.
func (s *searcher) topK(k int) []*Candidate {
	sorted := make([]*Candidate, len(s.cands))
	copy(sorted, s.cands)
	sort.Slice(sorted, func(i, j int) bool { return candLess(sorted[i], sorted[j]) })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

func candLess(a, b *Candidate) bool {
	if a.Price != b.Price {
		return a.Price < b.Price
	}
	if a.LatPrice != b.LatPrice {
		return a.LatPrice < b.LatPrice
	}
	return a.Fingerprint < b.Fingerprint
}

// best returns the cheapest candidate (nil when every candidate was pruned).
func (s *searcher) best() *Candidate {
	var best *Candidate
	for _, c := range s.cands {
		if best == nil || candLess(c, best) {
			best = c
		}
	}
	return best
}

// pareto returns the candidates not dominated on (LatPrice, Price),
// ascending in LatPrice: walking the latency-sorted list, a candidate joins
// the front when its bandwidth price strictly undercuts everything faster
// to start.
func (s *searcher) pareto() []*Candidate {
	sorted := make([]*Candidate, len(s.cands))
	copy(sorted, s.cands)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.LatPrice != b.LatPrice {
			return a.LatPrice < b.LatPrice
		}
		return candLess(a, b)
	})
	var front []*Candidate
	bestPrice := inf()
	for _, c := range sorted {
		if c.Price < bestPrice {
			front = append(front, c)
			bestPrice = c.Price
		}
	}
	return front
}
