package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// modelEpochs is every model epoch, oldest first, with the digest of the
// answers it names (answersDigest). A change that moves an answer appends an
// epoch with the new digest and sets modelEpoch to it; nothing else does.
var modelEpochs = []struct{ epoch, answers string }{
	{"mapd/1", "dad33b2c23ec1d749c54e4c50df14a0f02638dcc5bb49569399c7922736962d3"},
}

// answersDigest is a SHA-256 over the pinned answers: the cold path's golden
// rows (TestColdPathGolden, TestWarmContextGolden) and the entries of the
// synth table golden (TestTableGolden). Keys and fingerprints stay outside
// it — the table's "topology" is a cluster fingerprint — so a change that
// re-keys without moving an answer needs no new epoch.
func answersDigest(t *testing.T) string {
	t.Helper()
	cold, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join("..", "synth", "testdata", "table_fattree64.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var table struct {
		Entries json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(blob, &table); err != nil || len(table.Entries) == 0 {
		t.Fatalf("synth table golden: %d bytes of entries, %v", len(table.Entries), err)
	}
	h := sha256.New()
	h.Write(cold)
	h.Write(table.Entries)
	return hex.EncodeToString(h.Sum(nil))
}

// TestModelEpochPinned: modelEpoch moves exactly when the answers do. The
// newest pinned epoch must be modelEpoch and carry today's answers digest,
// and no two epochs may name the same answers.
func TestModelEpochPinned(t *testing.T) {
	digest := answersDigest(t)
	last := modelEpochs[len(modelEpochs)-1]
	if last.epoch != modelEpoch {
		t.Errorf("modelEpoch is %q, the newest pinned epoch %q: pin an epoch with the answers it names", modelEpoch, last.epoch)
	}
	if last.answers != digest {
		t.Errorf("the answers digest %s differs from %s pinned for %q: an answer moved, so bump modelEpoch and pin the new digest",
			digest, last.answers, last.epoch)
	}
	seen := map[string]bool{}
	for _, e := range modelEpochs {
		if seen[e.epoch] || seen[e.answers] {
			t.Errorf("epoch %q repeats an epoch or the answers of an earlier one: bump the epoch only when an answer moves", e.epoch)
		}
		seen[e.epoch], seen[e.answers] = true, true
	}
}

// TestOtherEpochHopConflicts: a replica answers 409 to a forward hop from
// another model epoch and computes nothing for it. "forwarded" carries an
// epoch, so the boolean marker of earlier releases is a 400.
func TestOtherEpochHopConflicts(t *testing.T) {
	s := newTestService(t)
	h := s.Handler()
	hop := func(forwarded string) []byte {
		return []byte(`{"topology":{"nodes":4,"sockets_per_node":2,"cores_per_socket":2},"patterns":[{"name":"ring"}],"forwarded":` + forwarded + `}`)
	}
	if code, reply := serveMap(context.Background(), h, hop(`"mapd/0"`)); code != http.StatusConflict {
		t.Errorf("a hop from epoch mapd/0: %d %s, want 409", code, reply)
	}
	if code, reply := serveMap(context.Background(), h, hop(`true`)); code != http.StatusBadRequest {
		t.Errorf(`a hop marked "forwarded":true: %d %s, want 400`, code, reply)
	}
	if n := s.stats.computes.Value(); n != 0 {
		t.Fatalf("refused hops computed %d items", n)
	}
	if code, reply := serveMap(context.Background(), h, hop(`"`+modelEpoch+`"`)); code != http.StatusOK {
		t.Errorf("a hop from this epoch: %d %s, want 200", code, reply)
	}
}

// TestOtherEpochPeerComputesLocally: a front whose peer answers 409 computes
// the peer-owned items itself, a single and a two-pattern sub-batch alike.
// Each answer is its own compute — not degraded, kept and stored under the
// front's name — and nothing the peer sent with its 409 is kept.
func TestOtherEpochPeerComputesLocally(t *testing.T) {
	var hops atomic.Int64
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		hops.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, `{"responses":[{"mapping":[0],"heuristic":"peer","degraded":false,"shard":"peer","cached":false,"elapsed_us":0}],"elapsed_us":0}`+"\n")
	}))
	defer peerSrv.Close()
	st := openTestStore(t, filepath.Join(t.TempDir(), "store.log"))
	defer st.Close()
	front := New(Config{Workers: 2, Store: st, Shard: &ShardConfig{Self: "front", Peers: map[string]string{"peer": peerSrv.URL}}})
	defer front.Close()

	ctx := context.Background()
	reqs := peerOwned(t, front, "ring", 3)
	single := reqs[0]
	single.Trace = true
	resp, err := front.Compute(ctx, single)
	if err != nil || resp.Degraded || resp.Shard != "front" || !marked(resp, "forward-other-epoch") {
		t.Fatalf("single: resp=%+v err=%v, want the front's own answer", resp, err)
	}
	if computes, degraded := front.stats.computes.Value(), front.stats.degraded.Value(); computes != 1 || degraded != 0 {
		t.Fatalf("single: %d computes, %d degraded; want 1 and 0", computes, degraded)
	}
	batch := &BatchRequest{Topology: smallTopo()}
	for _, r := range reqs[1:] {
		batch.Patterns = append(batch.Patterns, BatchPattern{Name: "ring", Sizes: r.Sizes})
	}
	bresp, err := front.ComputeBatch(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range bresp.Responses {
		if r.Degraded || r.Shard != "front" {
			t.Errorf("batch item %d: degraded=%v shard=%q, want the front's own answer", i, r.Degraded, r.Shard)
		}
	}
	if computes, degraded := front.stats.computes.Value(), front.stats.degraded.Value(); computes != 3 || degraded != 0 || hops.Load() != 2 {
		t.Errorf("%d computes, %d degraded after %d hops; want 3 and 0 after 2", computes, degraded, hops.Load())
	}
	for _, r := range reqs {
		key := keyOf(t, front, r)
		checkBase(t, front, key) // kept, and stored as kept
		if kept, _ := front.results.Get(key); kept.Shard != "front" || kept.Heuristic == "peer" {
			t.Errorf("key %.12s keeps shard %q heuristic %q, want the front's own answer", key, kept.Shard, kept.Heuristic)
		}
	}
}
