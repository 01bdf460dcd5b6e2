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

// forwardRequest relays req to the owning peer with the Forwarded marker
// set, preserving single-flight across the hop: the caller holds the local
// flight leadership, the peer dedupes concurrent arrivals on its own
// flight group. The response is sanitised of per-hop stamps and sealed as a
// base response before the caller re-caches it.
func (s *Service) forwardRequest(ctx context.Context, url string, req *Request) (*Response, error) {
	start := time.Now()
	resp, err := postJSON[Response](ctx, url+"/map", forwardedCopy(req))
	s.stats.forwarded(start, err)
	if err != nil {
		return nil, err
	}
	rebase(resp)
	return resp, nil
}

// rebase turns a response received from a peer into a local base response.
func rebase(r *Response) {
	r.Cached = false
	r.ElapsedMicros = 0
	r.Trace = nil
	r.seal() // decoded from JSON: cannot fail
}

// forwardBatch relays a whole sub-batch to the owning peer.
func (s *Service) forwardBatch(ctx context.Context, url string, breq *BatchRequest) (*BatchResponse, error) {
	start := time.Now()
	fwd := *breq
	fwd.Forwarded = true
	resp, err := postJSON[BatchResponse](ctx, url+"/map", &fwd)
	s.stats.forwarded(start, err)
	if err != nil {
		return nil, err
	}
	for _, r := range resp.Responses {
		if r != nil {
			rebase(r)
		}
	}
	return resp, nil
}

func forwardedCopy(req *Request) *Request {
	out := *req
	out.Forwarded = true
	out.Trace = false
	return &out
}

// postJSON posts v and decodes a T reply, surfacing error-body messages. The
// client sets no timeout of its own: a forward hop runs under the forwarding
// request's budget context, which bounds it.
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
