package sched

// BinomialReduceBroadcast builds the flat allreduce schedule: the binomial
// reduce to rank 0 followed by the binomial broadcast of the result. The
// block space is a single block: every rank starts with its own partial
// value of it (InitAll) and ends with the fully combined one.
func BinomialReduceBroadcast(p int) (*Schedule, error) {
	red, err := binomialReduce(p, 1)
	if err != nil {
		return nil, err
	}
	bc, err := BinomialBroadcast(p, 1)
	if err != nil {
		return nil, err
	}
	return &Schedule{Name: "allreduce", P: p, Blocks: 1, Init: InitAll, Stages: append(red, bc.Stages...)}, nil
}

// binomialReduce returns the stages of the binomial reduce of a
// blocks-block value to rank 0 over p ranks: the broadcast tree's stages in
// reverse order, with transfer directions flipped and combining semantics,
// so message sizes stay fixed — reductions combine rather than concatenate.
// Stage k is mask 2^k: a parent combines its children in ascending mask
// order, each as op(own, child).
func binomialReduce(p, blocks int) ([]Stage, error) {
	bc, err := BinomialBroadcast(p, blocks)
	if err != nil {
		return nil, err
	}
	stages := make([]Stage, 0, len(bc.Stages))
	for i := len(bc.Stages) - 1; i >= 0; i-- {
		st := Stage{Repeat: bc.Stages[i].Repeat, Reduce: true}
		for _, tr := range bc.Stages[i].Transfers {
			tr.Src, tr.Dst = tr.Dst, tr.Src
			st.Transfers = append(st.Transfers, tr)
		}
		stages = append(stages, st)
	}
	return stages, nil
}
