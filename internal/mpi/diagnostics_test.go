package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestDeadlockReportNamesBlockedRanks is the acceptance scenario of the
// diagnostics layer: an 8-rank pairwise exchange whose receives use the
// wrong tag must produce an error naming every blocked rank with its
// pending (src, tag) and the unmatched message sitting in its inbox.
func TestDeadlockReportNamesBlockedRanks(t *testing.T) {
	const p = 8
	err := Run(p, func(c *Comm) error {
		partner := c.Rank() ^ 1
		if err := c.Send(partner, 7, []byte{1, 2, 3}); err != nil {
			return err
		}
		_, err := c.Recv(partner, 8) // mismatched tag: the exchange sent tag 7
		return err
	}, WithTimeout(200*time.Millisecond))
	if err == nil {
		t.Fatal("mismatched-tag exchange did not fail")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error does not wrap ErrTimeout: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "blocked-rank report") {
		t.Fatalf("error lacks the blocked-rank report:\n%s", msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("(%d of %d ranks blocked", p, p)) {
		t.Errorf("report does not count all %d blocked ranks:\n%s", p, msg)
	}
	for r := 0; r < p; r++ {
		want := fmt.Sprintf("rank %d: awaiting (src=%d tag=8)", r, r^1)
		if !strings.Contains(msg, want) {
			t.Errorf("report missing %q:\n%s", want, msg)
		}
	}
	// The near-miss: every inbox holds the partner's tag-7 message.
	if !strings.Contains(msg, "tag=7") || !strings.Contains(msg, "inbox holds 1 unmatched") {
		t.Errorf("report missing the unmatched inbox message:\n%s", msg)
	}
	// Per-rank errors identify the communicator, not a raw context id.
	if !strings.Contains(msg, "world[size 8]") {
		t.Errorf("error does not describe the communicator:\n%s", msg)
	}
}

// TestDeadlockReportNamesLenders: a rank parked in WaitLent on a view its
// receiver never takes times out with ErrTimeout, and the blocked-rank
// report names it with its count of unreleased views.
func TestDeadlockReportNamesLenders(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil // never receives the view
		}
		view := make([]byte, 16)
		for i := 0; i < 2; i++ {
			if err := c.SendLent(1, 3, view); err != nil {
				return err
			}
		}
		return c.WaitLent()
	}, WithTimeout(150*time.Millisecond))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("error does not wrap ErrTimeout: %v", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "blocked-rank report (1 of 2 ranks blocked") ||
		!strings.Contains(msg, "rank 0: awaiting release of 2 lent views") {
		t.Errorf("report does not name the lender:\n%s", msg)
	}
}

func TestDeadlockReportDescribesDerivedComm(t *testing.T) {
	err := Run(4, func(c *Comm) error {
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		_, err = sub.Recv(1-sub.Rank(), 42) // nobody sends
		return err
	}, WithTimeout(150*time.Millisecond))
	if err == nil {
		t.Fatal("expected timeout")
	}
	if !strings.Contains(err.Error(), "split[size 2]") {
		t.Errorf("error does not name the split communicator:\n%v", err)
	}
}

func TestNoReportWithoutDeadline(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 0, nil)
		}
		_, err := c.Recv(0, 0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInfoSurvivesDupSplitReorder is the regression test for the info-loss
// bug: a communicator with topo_reorder=false must stay disabled across
// Dup, Split and Reorder, and the copies must not share the map.
func TestInfoSurvivesDupSplitReorder(t *testing.T) {
	const p = 4
	err := Run(p, func(c *Comm) error {
		c.SetInfo(InfoTopoReorder, "false")
		if c.ReorderEnabled() {
			return fmt.Errorf("info key did not disable reordering")
		}

		d, err := c.Dup()
		if err != nil {
			return err
		}
		if d.ReorderEnabled() {
			return fmt.Errorf("Dup lost %s", InfoTopoReorder)
		}

		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.ReorderEnabled() {
			return fmt.Errorf("Split lost %s", InfoTopoReorder)
		}

		re, err := sub.Reorder(core.Mapping{1, 0})
		if err != nil {
			return err
		}
		if re.ReorderEnabled() {
			return fmt.Errorf("Reorder lost %s", InfoTopoReorder)
		}

		// The info must be a copy, not an alias: re-enabling on the dup
		// must not leak into the parent, and vice versa.
		d.SetInfo(InfoTopoReorder, "true")
		if !d.ReorderEnabled() || c.ReorderEnabled() {
			return fmt.Errorf("derived info aliases the parent map")
		}
		c.SetInfo("level", "1")
		if v, ok := d.Info("level"); ok {
			return fmt.Errorf("parent mutation leaked into dup: %q", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDupOwnsMembers closes the shared-mutation hazard: the duplicate's
// member slice must be independent of the parent's.
func TestDupOwnsMembers(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		d, err := c.Dup()
		if err != nil {
			return err
		}
		d.members[0] = -42
		if c.members[0] == -42 {
			return fmt.Errorf("Dup aliased the parent's member slice")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsRuntimeEvents(t *testing.T) {
	rec := trace.NewRecorder()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			// Let rank 1 block first, so the trace shows a recv wait.
			time.Sleep(20 * time.Millisecond)
			return c.Send(1, 5, []byte("abc"))
		}
		_, err := c.Recv(0, 5)
		return err
	}, WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Count(trace.KindCommCreate); got != 2 {
		t.Errorf("comm-create events = %d, want 2", got)
	}
	if rec.Count(trace.KindSend) != 1 || rec.Count(trace.KindDeliver) != 1 {
		t.Errorf("send/deliver = %d/%d, want 1/1",
			rec.Count(trace.KindSend), rec.Count(trace.KindDeliver))
	}
	if rec.Count(trace.KindRecvMatch) != 1 {
		t.Errorf("recv-match = %d, want 1", rec.Count(trace.KindRecvMatch))
	}
	if rec.Count(trace.KindRecvBlock) != rec.Count(trace.KindRecvUnblock) {
		t.Errorf("unbalanced block/unblock: %d/%d",
			rec.Count(trace.KindRecvBlock), rec.Count(trace.KindRecvUnblock))
	}
	var send trace.Event
	for _, e := range rec.Events(0) {
		if e.Kind == trace.KindSend {
			send = e
		}
	}
	if send.Peer != 1 || send.Tag != 5 || send.Bytes != 3 {
		t.Errorf("send event fields wrong: %+v", send)
	}
}

func TestTracerRecordsCommLifecycle(t *testing.T) {
	rec := trace.NewRecorder()
	const p = 4
	err := Run(p, func(c *Comm) error {
		if _, err := c.Dup(); err != nil {
			return err
		}
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if _, err := sub.Reorder(core.Mapping{1, 0}); err != nil {
			return err
		}
		return nil
	}, WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	for kind, want := range map[trace.Kind]int{
		trace.KindCommCreate:  p,
		trace.KindCommDup:     p,
		trace.KindCommSplit:   p,
		trace.KindCommReorder: p,
	} {
		if got := rec.Count(kind); got != want {
			t.Errorf("%v events = %d, want %d", kind, got, want)
		}
	}
}

// TestStressReorderedNonblockingWithTracing floods a reordered communicator
// with concurrent traffic — one sending and one receiving goroutine per peer
// on every rank — while tracing and stats are enabled. Its job is to fail
// under `go test -race` if any of the recorder, stats or runtime paths share
// state unsafely.
func TestStressReorderedNonblockingWithTracing(t *testing.T) {
	const (
		p     = 8
		msgs  = 40
		tagLo = 1000
	)
	rec := trace.NewRecorder()
	stats := NewStats()
	err := Run(p, func(c *Comm) error {
		re, err := c.Reorder(core.Mapping{3, 1, 4, 2, 0, 7, 5, 6})
		if err != nil {
			return err
		}
		errs := make(chan error, 2*(p-1)) // one slot per goroutine below
		var wg sync.WaitGroup
		for peer := 0; peer < p; peer++ {
			if peer == re.Rank() {
				continue
			}
			wg.Add(2)
			go func(peer int) {
				defer wg.Done()
				for i := 0; i < msgs; i++ {
					if _, err := re.Recv(peer, tagLo+i); err != nil {
						errs <- err
						return
					}
				}
			}(peer)
			go func(peer int) {
				defer wg.Done()
				payload := []byte{byte(re.Rank()), byte(peer)}
				for i := 0; i < msgs; i++ {
					if err := re.Send(peer, tagLo+i, payload); err != nil {
						errs <- err
						return
					}
				}
			}(peer)
		}
		wg.Wait()
		close(errs)
		return <-errs // nil when no goroutine failed
	}, WithTracer(rec), WithStats(stats), WithTimeout(30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// All pairwise data messages plus the p-1 control messages Reorder's
	// collective context allocation scatters from rank 0.
	wantMsgs := int64(p*(p-1)*msgs + (p - 1))
	if got := stats.TotalMessages(); got != wantMsgs {
		t.Errorf("stats counted %d messages, want %d", got, wantMsgs)
	}
	if got := rec.Count(trace.KindSend); got != int(wantMsgs) {
		t.Errorf("trace recorded %d sends, want %d", got, wantMsgs)
	}
	if rec.Count(trace.KindRecvMatch) != int(wantMsgs) {
		t.Errorf("trace recorded %d matches, want %d", rec.Count(trace.KindRecvMatch), wantMsgs)
	}
}

func TestSizeBucket(t *testing.T) {
	cases := map[int]int{
		-1: 0, 0: 0, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8,
		1023: 1024, 1024: 1024, 1025: 2048,
	}
	for n, want := range cases {
		if got := SizeBucket(n); got != want {
			t.Errorf("SizeBucket(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestStatsSizeHistogram(t *testing.T) {
	stats := NewStats()
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i, size := range []int{0, 1, 3, 3, 1024} {
				if err := c.Send(1, i, make([]byte, size)); err != nil {
					return err
				}
			}
			return nil
		}
		for i := range []int{0, 1, 3, 3, 1024} {
			if _, err := c.Recv(0, i); err != nil {
				return err
			}
		}
		return nil
	}, WithStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	all := stats.PairHistograms()
	h := all[[2]int{0, 1}]
	want := map[int]int64{0: 1, 1: 1, 4: 2, 1024: 1}
	if len(h) != len(want) {
		t.Fatalf("histogram = %v, want %v", h, want)
	}
	for bucket, count := range want {
		if h[bucket] != count {
			t.Errorf("bucket %d = %d, want %d", bucket, h[bucket], count)
		}
	}
	if len(all) != 1 {
		t.Errorf("silent pair has a histogram: %v", all)
	}
	// Copies, not views.
	h[1024] = 99
	if stats.PairHistograms()[[2]int{0, 1}][1024] != 1 {
		t.Error("PairHistograms returned a view")
	}
}
