package synth

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sched"
)

func TestSizeBucket(t *testing.T) {
	cases := []struct{ bytes, bucket int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}, {2048, 11},
	}
	for _, c := range cases {
		if got := SizeBucket(c.bytes); got != c.bucket {
			t.Errorf("SizeBucket(%d) = %d, want %d", c.bytes, got, c.bucket)
		}
	}
}

// TestAlltoallBucketsPerPair pins the satellite fix: all-to-all table keys
// bucket on per-pair bytes, not the aggregate send buffer. A p=64 and a
// p=256 job moving the same 4 KiB per destination land in the same bucket —
// the aggregate payloads (256 KiB vs 1 MiB) differ by 4x and would otherwise
// split the identical network regime across bucket keys. Block-payload
// families keep aggregate bucketing.
func TestAlltoallBucketsPerPair(t *testing.T) {
	const perPair = 4096
	want := SizeBucket(perPair)
	for _, p := range []int{64, 256} {
		if got := familyBucket(Alltoall, p, p*perPair); got != want {
			t.Errorf("familyBucket(alltoall, p=%d, %dB) = %d, want per-pair bucket %d",
				p, p*perPair, got, want)
		}
	}
	if a, b := familyBucket(Allgather, 64, 64*perPair), familyBucket(Allgather, 256, 256*perPair); a == b {
		t.Errorf("allgather buckets should track aggregate payload, got %d for both p", a)
	}

	// Lookup agrees with the key BuildTable would store: an entry keyed at the
	// per-pair bucket is found from the aggregate payload at either rank count.
	m := fatTree64(t)
	tab := NewTable(m)
	tab.Put(Entry{Family: "alltoall", P: 64, SizeBucket: want, Recipe: Recipe{Alg: "pairwise-alltoall"}})
	if _, ok := tab.Lookup(Alltoall, 64, 64*perPair); !ok {
		t.Error("alltoall lookup with aggregate payload missed its per-pair bucket")
	}
	if _, ok := tab.Lookup(Alltoall, 64, 64*perPair*16); ok {
		t.Error("alltoall lookup 16x the per-pair size should miss the bucket")
	}
}

func TestTablePutLookupMerge(t *testing.T) {
	m := fatTree64(t)
	tab := NewTable(m)
	e := Entry{Family: "allgather", P: 64, SizeBucket: 11, PayloadBytes: 2048,
		Recipe: Recipe{Alg: "neighbor-exchange"}, Schedule: "fp", Name: "neighbor-exchange"}
	tab.Put(e)
	tab.Put(Entry{Family: "allgather", P: 16, SizeBucket: 11, Recipe: Recipe{Alg: "ring"}})
	tab.Put(Entry{Family: "bcast", P: 64, SizeBucket: 4, Recipe: Recipe{Alg: "binomial-broadcast"}})

	if got, ok := tab.Lookup(Allgather, 64, 2048); !ok || got.Recipe.Alg != "neighbor-exchange" {
		t.Fatalf("Lookup(allgather, 64, 2048) = %+v, %v", got, ok)
	}
	if _, ok := tab.Lookup(Allgather, 64, 4096); ok {
		t.Error("lookup outside the stored bucket should miss")
	}
	if _, ok := tab.Lookup(Allreduce, 64, 2048); ok {
		t.Error("lookup of an absent family should miss")
	}

	// Replacement keeps one entry per key.
	e.Recipe.Alg = "bruck"
	tab.Put(e)
	if got, _ := tab.Lookup(Allgather, 64, 2048); got.Recipe.Alg != "bruck" {
		t.Errorf("Put did not replace: %+v", got)
	}
	if len(tab.Entries) != 3 {
		t.Errorf("expected 3 entries after replacement, got %d", len(tab.Entries))
	}

	other := NewTable(m)
	other.Put(Entry{Family: "scatter", P: 8, SizeBucket: 7, Recipe: Recipe{Alg: "binomial-scatter"}})
	if err := tab.Merge(other); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if len(tab.Entries) != 4 {
		t.Errorf("merge lost entries: %d", len(tab.Entries))
	}
	bad := &Table{Topology: "deadbeefdeadbeef"}
	if err := tab.Merge(bad); err == nil {
		t.Error("merging a foreign topology should fail")
	}
}

// TestTableGolden pins the serialized form of a search-built table — the
// same regression discipline as the topology fingerprint goldens. Regenerate
// with UPDATE_GOLDEN=1 go test ./internal/synth -run TestTableGolden.
func TestTableGolden(t *testing.T) {
	m := fatTree64(t)
	tab, results, err := BuildTable(m, []Family{Allgather}, []int{16, 64}, []int{2048}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("expected 2 search results, got %d", len(results))
	}
	got, err := tab.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "table_fattree64.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("table serialization drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Round trip: unmarshal then marshal is byte-identical.
	rt, err := Unmarshal(got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := rt.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Error("marshal/unmarshal round trip is not byte-identical")
	}
}

func TestTableFileRoundTrip(t *testing.T) {
	m := fatTree64(t)
	tab, _, err := BuildTable(m, []Family{Allgather}, []int{64}, []int{2048}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "table.json")
	if err := tab.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := tab.Marshal()
	b, _ := loaded.Marshal()
	if !bytes.Equal(a, b) {
		t.Error("WriteFile/LoadFile round trip changed the table")
	}
}

// TestSelectorServesTable: a selector hit re-materialises the winner,
// proves its fingerprint, compiles through the shared cache, and enforces
// per-payload divisibility; misses fall through cleanly.
func TestSelectorServesTable(t *testing.T) {
	m := fatTree64(t)
	tab, _, err := BuildTable(m, []Family{Allgather}, []int{64}, []int{2048}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	entry, ok := tab.Lookup(Allgather, 64, 2048)
	if !ok {
		t.Fatal("BuildTable stored no winner for the acceptance point")
	}
	sel := NewSelector(tab)
	prog, ok := sel.Program(Allgather, 64, 2048)
	if !ok {
		t.Fatal("selector missed a stored entry")
	}
	if prog.Name != entry.Name {
		t.Errorf("selector served %q, table stored %q", prog.Name, entry.Name)
	}
	// Second call is memoised and identical.
	prog2, ok := sel.Program(Allgather, 64, 2048)
	if !ok || prog2 != prog {
		t.Error("selector did not memoise the compiled program")
	}
	// Other keys miss.
	if _, ok := sel.Program(Allgather, 32, 2048); ok {
		t.Error("selector hit an absent rank count")
	}
	if _, ok := sel.Program(Broadcast, 64, 2048); ok {
		t.Error("selector hit an absent family")
	}
	// A nil selector always misses.
	var nilSel *Selector
	if _, ok := nilSel.Program(Allgather, 64, 2048); ok {
		t.Error("nil selector must miss")
	}
}

// TestSelectorRejectsStaleFingerprint: an entry whose recipe no longer
// reproduces the recorded fingerprint is refused, falling back to the
// hand-coded rules rather than executing a different schedule than priced.
func TestSelectorRejectsStaleFingerprint(t *testing.T) {
	m := fatTree64(t)
	tab := NewTable(m)
	tab.Put(Entry{Family: "allgather", P: 64, SizeBucket: 11, PayloadBytes: 2048,
		Recipe: Recipe{Alg: "ring"}, Schedule: "not-the-real-fingerprint", Name: "ring"})
	sel := NewSelector(tab)
	if _, ok := sel.Program(Allgather, 64, 2048); ok {
		t.Fatal("selector served an entry with a stale fingerprint")
	}
}

// validAndStaleSelector wraps a table with a valid ring allgather entry and a
// binomial broadcast entry whose recorded fingerprint its recipe does not
// reproduce, both at p=64 and 2 KiB.
func validAndStaleSelector(t *testing.T) *Selector {
	t.Helper()
	tab := NewTable(fatTree64(t))
	put := func(f Family, alg, fingerprint string) {
		sch, err := Recipe{Alg: alg}.Materialize(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint == "" {
			fingerprint = sched.Fingerprint(sch)
		}
		tab.Put(Entry{Family: f.String(), P: 64, SizeBucket: familyBucket(f, 64, 2048), PayloadBytes: 2048,
			Recipe: Recipe{Alg: alg}, Schedule: fingerprint, Name: sch.Name})
		if _, ok := tab.Lookup(f, 64, 2048); !ok {
			t.Fatalf("table does not cover %s at p=64, 2 KiB", f)
		}
	}
	put(Allgather, "ring", "")
	put(Broadcast, "binomial-broadcast", "not-the-real-fingerprint")
	return NewSelector(tab)
}

// TestSelectorConcurrentVerdicts: 64 goroutines race one selector's valid and
// stale entries. Every caller of the valid entry gets the same program, and no
// caller of the stale entry gets one. Run under -race.
func TestSelectorConcurrentVerdicts(t *testing.T) {
	sel := validAndStaleSelector(t)
	const callers = 64
	progs := make([]*sched.Program, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], _ = sel.Program(Allgather, 64, 2048)
			if prog, ok := sel.Program(Broadcast, 64, 2048); ok || prog != nil {
				t.Errorf("caller %d was served the stale entry", i)
			}
		}()
	}
	wg.Wait()
	for i, prog := range progs {
		if prog == nil || prog != progs[0] {
			t.Fatalf("caller %d got program %p, caller 0 got %p", i, prog, progs[0])
		}
	}
}

// TestSelectorKeepsStaleVerdict: a repeated lookup of a stale entry reads the
// kept verdict — it allocates nothing, so nothing is re-materialised or
// re-hashed.
func TestSelectorKeepsStaleVerdict(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sel := validAndStaleSelector(t)
	sel.Program(Broadcast, 64, 2048)
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := sel.Program(Broadcast, 64, 2048); ok {
			t.Fatal("selector served the stale entry")
		}
	}); n != 0 {
		t.Errorf("stale lookup: %.1f allocations, want 0", n)
	}
}
