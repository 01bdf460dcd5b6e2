package synth

import "repro/internal/sched"

// SeedEnv carries the machine context a family's parameterised seeds and
// operators are built from: the rank count, the searched payload, the
// hierarchical radix candidates derived from the machine shape, and — when
// the machine is a torus whose cores the job covers under the blocked
// layout — the mixed-radix torus dimension vector.
type SeedEnv struct {
	P            int
	PayloadBytes int
	GroupSizes   []int
	TorusDims    []int
}

// familySeeds returns a family's parameterised seed recipes, derived from
// its registry entry: hierarchical compositions for the allgather family,
// then the dimension-wise torus-native builder when the family has one and
// the machine exposes torus dimensions, then the pipelined variant's chunk
// counts when the family has one. The registry's flat Seeds list follows
// them (seedRecipes).
func familySeeds(fam *sched.Family, env SeedEnv) []Recipe {
	var seeds []Recipe
	if fam.ID == Allgather {
		// Hierarchical seeds come first: they are the cheapest to price and
		// usually set a tight incumbent, which lets the lower bound prune
		// the stage-heavy flat algorithms without pricing them.
		for _, g := range env.GroupSizes {
			for _, intra := range []string{"linear", "non-linear"} {
				for _, inter := range []string{"recursive-doubling", "ring"} {
					seeds = append(seeds, Recipe{Alg: "hierarchical", GroupSize: g, Intra: intra, Inter: inter})
				}
			}
		}
	}
	if fam.TorusBuilder != nil && env.TorusDims != nil {
		seeds = append(seeds, Recipe{Alg: "torus-native", Dims: env.TorusDims})
	}
	if fam.Pipelined != nil {
		seeds = append(seeds, pipelineSeeds(env)...)
	}
	return seeds
}

// pipelineChunkSeeds are the chunk counts the broadcast pipelining operator
// seeds: a small fixed count for mid payloads plus counts pinned to the rank
// count — the chain pipeline's price approaches bytes/bandwidth only once
// chunks reaches the chain length, so p-relative counts are where the bulk
// wins live. Only counts dividing the payload materialise (PayloadKind buffer
// sizing requires exact division).
func pipelineChunkSeeds(p int) []int {
	return []int{8, p, 2 * p}
}

// pipelineSeeds seeds the chunked pipelined broadcast at each candidate
// chunk count that divides the payload — the family-specific Repeat-count
// operator's entry points.
func pipelineSeeds(env SeedEnv) []Recipe {
	var seeds []Recipe
	seen := map[int]bool{}
	for _, chunks := range pipelineChunkSeeds(env.P) {
		if chunks >= 2 && !seen[chunks] && env.PayloadBytes >= chunks && env.PayloadBytes%chunks == 0 {
			seen[chunks] = true
			seeds = append(seeds, Recipe{Alg: "pipelined", Chunks: chunks})
		}
	}
	return seeds
}

// pipelineMutate explores neighbouring chunk counts of a pipelined beam
// member (halve and double, within payload divisibility and a 4p ceiling
// past which stage alphas swamp the per-chunk overlap), so the search can
// walk toward the latency/overlap sweet spot rather than only sampling the
// fixed seed counts.
func pipelineMutate(env SeedEnv, c *Candidate) []Recipe {
	if c.Recipe.Alg != "pipelined" {
		return nil
	}
	var out []Recipe
	for _, chunks := range []int{c.Recipe.Chunks / 2, c.Recipe.Chunks * 2} {
		if chunks >= 2 && chunks <= 4*env.P && env.PayloadBytes >= chunks && env.PayloadBytes%chunks == 0 {
			alt := c.Recipe
			alt.Chunks = chunks
			out = append(out, alt)
		}
	}
	return out
}
