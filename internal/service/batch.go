package service

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// MaxBatchPatterns bounds one batch request.
const MaxBatchPatterns = 1024

// BatchPattern is one pattern of a batch: the pattern itself plus optional
// per-pattern overrides of the batch-level heuristic/order/sizes.
type BatchPattern struct {
	Name      string     `json:"name,omitempty"`
	Graph     *GraphSpec `json:"graph,omitempty"`
	Heuristic string     `json:"heuristic,omitempty"`
	Order     string     `json:"order,omitempty"`
	Sizes     []int      `json:"sizes,omitempty"`
}

// BatchRequest maps N patterns against one topology in a single call
// (POST /map with a "patterns" array). The patterns share one topology
// context — cluster wiring, layout, distance oracle, priced machine, one
// mapping per oracle heuristic — and fan out through the worker pool.
type BatchRequest struct {
	Topology TopologySpec   `json:"topology"`
	Procs    int            `json:"procs,omitempty"`
	Layout   string         `json:"layout,omitempty"`
	Patterns []BatchPattern `json:"patterns"`
	// Heuristic, Order and Sizes are batch-level defaults, overridable per
	// pattern.
	Heuristic     string `json:"heuristic,omitempty"`
	Order         string `json:"order,omitempty"`
	Sizes         []int  `json:"sizes,omitempty"`
	TimeoutMillis int    `json:"timeout_ms,omitempty"`
	// Forwarded marks a sub-batch relayed by a peer shard (see
	// Request.Forwarded).
	Forwarded bool `json:"forwarded,omitempty"`
}

// BatchResponse carries one response per requested pattern, in order.
type BatchResponse struct {
	Responses     []*Response `json:"responses"`
	ElapsedMicros int64       `json:"elapsed_us"`
}

// itemRequest expands pattern i into a standalone Request, resolving the
// batch-level defaults.
func (b *BatchRequest) itemRequest(i int) *Request {
	p := &b.Patterns[i]
	req := &Request{
		Topology:      b.Topology,
		Procs:         b.Procs,
		Layout:        b.Layout,
		Pattern:       PatternSpec{Name: p.Name, Graph: p.Graph},
		Heuristic:     p.Heuristic,
		Order:         p.Order,
		Sizes:         p.Sizes,
		TimeoutMillis: b.TimeoutMillis,
		Forwarded:     b.Forwarded,
	}
	if req.Heuristic == "" {
		req.Heuristic = b.Heuristic
	}
	if req.Order == "" {
		req.Order = b.Order
	}
	if len(req.Sizes) == 0 {
		req.Sizes = b.Sizes
	}
	return req
}

// ComputeBatch answers a batch request. Every pattern compiles against the
// batch's one topology context, which is all the patterns share, and then
// runs the same per-request pipeline as Compute — cache, store, single-flight,
// worker pool — counting on the same per-request metrics. Patterns owned by
// peer shards are grouped and forwarded as sub-batches. An invalid pattern
// fails the whole batch (the response array would otherwise silently change
// meaning); a deadline degrades per item, and admission control (-shed) admits
// or sheds the batch's local computations as one.
func (s *Service) ComputeBatch(ctx context.Context, breq *BatchRequest) (*BatchResponse, error) {
	startAll := time.Now()
	n := len(breq.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("service: batch needs at least one pattern")
	}
	if n > MaxBatchPatterns {
		return nil, fmt.Errorf("service: batch of %d patterns exceeds %d", n, MaxBatchPatterns)
	}
	tc, err := s.contexts.get(&breq.Topology, breq.Procs, breq.Layout)
	if err != nil {
		return nil, err
	}
	reqs := make([]*Request, n)
	items := make([]*compiled, n)
	for i := range breq.Patterns {
		reqs[i] = breq.itemRequest(i)
		c, err := compileWith(tc, reqs[i])
		if err != nil {
			return nil, fmt.Errorf("patterns[%d]: %w", i, err)
		}
		items[i] = c
	}
	s.stats.batch(n)

	// Partition by ring owner: local patterns fan out through the pool,
	// remote patterns are grouped into one sub-batch per owning peer.
	responses := make([]*Response, n)
	errs := make([]error, n)
	remote := make(map[string][]int)
	var local []int
	for i, c := range items {
		if owner, _, isRemote := s.shardFor(c.key); isRemote && !c.forwarded {
			remote[owner] = append(remote[owner], i)
		} else {
			local = append(local, i)
		}
	}

	// Admission is decided once, before the fan-out: the local items queue
	// on the pool by design, so letting each test the queue depth would make
	// a batch wider than the threshold shed its own tail.
	shed := s.underPressure()
	var wg sync.WaitGroup
	for _, i := range local {
		items[i].shed = &shed
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = s.serveItem(ctx, reqs[i], items[i], time.Now())
		}(i)
	}
	for owner, idxs := range remote {
		wg.Add(1)
		go func(owner string, idxs []int) {
			defer wg.Done()
			s.serveRemoteGroup(ctx, owner, breq, items, idxs, responses)
		}(owner, idxs)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("patterns[%d]: %w", i, err)
		}
	}
	return &BatchResponse{
		Responses:     responses,
		ElapsedMicros: time.Since(startAll).Microseconds(),
	}, nil
}

// serveRemoteGroup answers the batch patterns owned by one peer: cache and
// store first, then a single forwarded sub-batch for the flight leaders
// among the rest. Followers (duplicate keys already in flight, locally or
// from a concurrent request) wait for their leader as usual — single
// flight holds across the hop. A failed forward degrades every leader to
// the identity mapping; it never fails the batch.
func (s *Service) serveRemoteGroup(ctx context.Context, owner string, breq *BatchRequest, items []*compiled, idxs []int, responses []*Response) {
	ctx, cancel := s.budget(ctx, time.Duration(breq.TimeoutMillis)*time.Millisecond)
	defer cancel()

	finish := func(i int, start time.Time, resp *Response, cached bool) {
		responses[i] = stamp(resp, cached, start, nil)
		s.stats.end(start, outcomeFor(resp))
	}

	var leaders []int
	calls := make(map[int]*onceSlot[*Response])
	var wait sync.WaitGroup
	for _, i := range idxs {
		start := time.Now()
		s.stats.begin()
		c := items[i]
		if resp, ok := s.cache.get(c.key); ok {
			s.stats.cacheHits.Inc()
			finish(i, start, resp, true)
			continue
		}
		s.stats.cacheMisses.Inc()
		if resp, ok := s.storeGet(c.key); ok {
			s.cache.put(c.key, resp)
			finish(i, start, resp, true)
			continue
		}
		call, leader := s.flight.join(c.key)
		if !leader {
			s.stats.flightShared.Inc()
			wait.Add(1)
			go func(i int, start time.Time, call *onceSlot[*Response]) {
				defer wait.Done()
				select {
				case <-call.done:
					if call.err != nil || call.val == nil {
						finish(i, start, degradedResponse(items[i]), false)
						return
					}
					finish(i, start, call.val, false)
				case <-ctx.Done():
					finish(i, start, degradedResponse(items[i]), false)
				}
			}(i, start, call)
			continue
		}
		calls[i] = call
		leaders = append(leaders, i)
		// The leader's clock keeps running until the group returns; record
		// its start by reusing the response slot.
		responses[i] = &Response{ElapsedMicros: start.UnixNano()}
	}

	if len(leaders) > 0 {
		sub := BatchRequest{
			Topology:      breq.Topology,
			Procs:         breq.Procs,
			Layout:        breq.Layout,
			Heuristic:     breq.Heuristic,
			Order:         breq.Order,
			Sizes:         breq.Sizes,
			TimeoutMillis: breq.TimeoutMillis,
		}
		for _, i := range leaders {
			sub.Patterns = append(sub.Patterns, breq.Patterns[i])
		}
		var got *BatchResponse
		if _, url, remote := s.shardFor(items[leaders[0]].key); remote {
			got, _ = s.forwardBatch(ctx, url, &sub)
		}
		for pos, i := range leaders {
			start := time.Unix(0, responses[i].ElapsedMicros)
			var resp *Response
			if got != nil && pos < len(got.Responses) && got.Responses[pos] != nil {
				resp = got.Responses[pos]
			} else {
				resp = degradedResponse(items[i])
			}
			if !resp.Degraded {
				s.cache.put(items[i].key, resp)
			}
			s.flight.retire(items[i].key, calls[i], resp, nil)
			finish(i, start, resp, false)
		}
	}
	wait.Wait()
}
