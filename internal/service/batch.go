package service

import (
	"context"
	"fmt"
	"slices"
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
	// Forwarded marks a forward hop from a peer shard, and is the only
	// forwarded marker on the wire: a peer forwards a single request as a
	// batch of one. The receiving replica serves every pattern locally even
	// when the ring says another node owns its key, so a request never
	// bounces between replicas. Set by the forwarding hop, not by clients.
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
// batch's one topology context, which is all the patterns share, and the
// items then take the trip a single request takes (serveItems), counting on
// the same per-request metrics; the items a peer shard owns ride one hop per
// peer. An invalid pattern fails the whole batch (the response array would
// otherwise silently change meaning); a deadline degrades per item, and
// admission control (-shed) admits or sheds the batch's local computations
// as one.
func (s *Service) ComputeBatch(ctx context.Context, breq *BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	n := len(breq.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("service: batch needs at least one pattern")
	}
	if n > MaxBatchPatterns {
		return nil, fmt.Errorf("service: batch of %d patterns exceeds %d", n, MaxBatchPatterns)
	}
	tc, err := s.contextFor(&breq.Topology, breq.Procs, breq.Layout)
	if err != nil {
		return nil, err
	}
	items := make([]*compiled, n)
	for i := range breq.Patterns {
		c, err := compileWith(tc, breq.itemRequest(i))
		if err != nil {
			return nil, fmt.Errorf("patterns[%d]: %w", i, err)
		}
		c.forwarded = breq.Forwarded
		items[i] = c
	}
	// A peer's hop is counted where it leaves (mapd_forwards_total); the
	// batch counters count what clients send.
	if !breq.Forwarded {
		s.stats.batch(n)
	}
	for range items {
		s.stats.begin()
	}
	responses, err := s.serveItems(ctx, items, start)
	for _, resp := range responses {
		s.stats.end(start, outcomeFor(resp))
	}
	if err != nil {
		return nil, fmt.Errorf("patterns[%d]: %w", slices.Index(responses, nil), err)
	}
	return &BatchResponse{
		Responses:     responses,
		ElapsedMicros: time.Since(start).Microseconds(),
	}, nil
}
