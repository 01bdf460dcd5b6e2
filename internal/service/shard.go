package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ring"
)

// ShardConfig makes a Service one replica of a consistent-hash fleet. Every
// replica, configured with the same member names, derives the same ring
// with no coordination (see the ring package); a request whose cache key
// another member owns is forwarded there, so each fingerprint is computed
// and persisted exactly once fleet-wide.
type ShardConfig struct {
	// Self is this replica's name on the ring.
	Self string
	// Peers maps member names to base URLs (e.g. "http://10.0.0.2:7117").
	// Self may appear and is ignored for forwarding. Update later with
	// SetPeers as membership churns.
	Peers map[string]string
	// VNodes is the virtual points per member (default ring.DefaultVirtualNodes).
	VNodes int
}

// shardState is the immutable resolved sharding view, swapped atomically on
// SetPeers so the request path reads it lock-free.
type shardState struct {
	self  string
	ring  *ring.Ring
	peers map[string]string
}

// setShardState rebuilds the ring over self plus the peer names.
func (s *Service) setShardState(self string, peers map[string]string, vnodes int) {
	names := make([]string, 0, len(peers)+1)
	names = append(names, self)
	for name := range peers {
		names = append(names, name)
	}
	peerCopy := make(map[string]string, len(peers))
	for name, url := range peers {
		peerCopy[name] = url
	}
	s.shard.Store(&shardState{
		self:  self,
		ring:  ring.New(names, vnodes),
		peers: peerCopy,
	})
}

// SetPeers replaces the fleet membership: the ring is rebuilt over Self
// plus the given peer names. Only the keys of departed members move. It is
// an error to call SetPeers on an unsharded service.
func (s *Service) SetPeers(peers map[string]string) error {
	st := s.shard.Load()
	if st == nil {
		return fmt.Errorf("service: SetPeers on a service without Config.Shard")
	}
	s.setShardState(st.self, peers, s.cfg.Shard.VNodes)
	return nil
}

// shardSelf names this replica, or "" when unsharded.
func (s *Service) shardSelf() string {
	if st := s.shard.Load(); st != nil {
		return st.self
	}
	return ""
}

// shardFor resolves key's owner. remote is false when unsharded, when this
// replica owns the key, or when the owner has no known URL (degraded
// membership view: serve locally rather than fail).
func (s *Service) shardFor(key string) (owner, url string, remote bool) {
	st := s.shard.Load()
	if st == nil {
		return "", "", false
	}
	owner = st.ring.Owner(key)
	if owner == "" || owner == st.self {
		return owner, "", false
	}
	url, ok := st.peers[owner]
	if !ok {
		return owner, "", false
	}
	return owner, url, true
}

// forward relays the leaders idxs of items, whose keys the peer at url owns,
// in one hop under the request's budget: a BatchRequest marked forwarded,
// built from the items' own requests, so that a single request forwards as a
// batch of one. The peer serves every item locally and dedupes concurrent
// arrivals on its own flights, while the caller leads each item's flight
// here: single flight holds across the hop. got[pos] is item idxs[pos]'s
// reply rebased as a local base response — per-request fields cleared, then
// sealed — or nil when the hop failed or the reply fell short of it. err is
// the hop's failure; errOtherEpoch when the peer runs another model epoch.
func (s *Service) forward(ctx context.Context, url string, items []*compiled, idxs []int) ([]*Response, error) {
	first := items[idxs[0]].req
	hop := BatchRequest{
		Topology:      first.Topology,
		Procs:         first.Procs,
		Layout:        first.Layout,
		Patterns:      make([]BatchPattern, len(idxs)),
		TimeoutMillis: first.TimeoutMillis,
		Forwarded:     modelEpoch,
	}
	for pos, i := range idxs {
		r := items[i].req
		hop.Patterns[pos] = BatchPattern{Name: r.Pattern.Name, Graph: r.Pattern.Graph, Heuristic: r.Heuristic, Order: r.Order, Sizes: r.Sizes}
	}
	start := time.Now()
	reply, err := postJSON[BatchResponse](ctx, url+"/map", &hop)
	s.stats.forwarded(start, err)
	got := make([]*Response, len(idxs))
	for pos := range got {
		if err == nil && pos < len(reply.Responses) && reply.Responses[pos] != nil {
			r := reply.Responses[pos]
			r.Cached, r.ElapsedMicros, r.Trace = false, 0, nil
			r.seal() // decoded from JSON: cannot fail
			got[pos] = r
		}
	}
	return got, err
}

// postJSON posts v and decodes a T reply, surfacing error-body messages; a
// 409 is errOtherEpoch. The client sets no timeout of its own: a forward hop
// runs under the forwarding request's budget context, which bounds it.
func postJSON[T any](ctx context.Context, url string, v any) (*T, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode == http.StatusConflict {
		return nil, fmt.Errorf("peer: %w", errOtherEpoch)
	}
	if hresp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return nil, fmt.Errorf("peer: %s", e.Error)
		}
		return nil, fmt.Errorf("peer: HTTP %d", hresp.StatusCode)
	}
	out := new(T)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, err
	}
	return out, nil
}
