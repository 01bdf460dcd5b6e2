package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRecordMappingAllocatesNothing: every reporting heuristic's series is
// resolved at init, so recording a mapping — completed, cancelled or failed —
// resolves no label and allocates nothing, and still lands in its series.
func TestRecordMappingAllocatesNothing(t *testing.T) {
	start := time.Now()
	failed := errors.New("no core left")
	for _, h := range []string{"rdmh", "rmh", "bbmh", "bgmh", "bkmh", "scotch"} {
		m := byHeuristic[h]
		for _, err := range []error{nil, context.Canceled, context.DeadlineExceeded, failed} {
			done, cancelled := m.mappings.Value(), m.cancellations.Value()
			placed, evals, n := m.placements.Value(), m.costEvals.Value(), m.seconds.Count()
			allocs := testing.AllocsPerRun(100, func() { RecordMapping(h, start, 16, 64, err) })
			if allocs != 0 {
				t.Errorf("RecordMapping(%q, %v) allocates %.2f times per call, want 0", h, err, allocs)
			}
			calls := m.seconds.Count() - n // AllocsPerRun adds a warm-up call
			wantDone, wantCancelled := uint64(0), uint64(0)
			switch {
			case err == nil:
				wantDone = calls
			case err != failed:
				wantCancelled = calls
			}
			if m.mappings.Value()-done != wantDone || m.cancellations.Value()-cancelled != wantCancelled ||
				m.placements.Value()-placed != 16*calls || m.costEvals.Value()-evals != 64*calls {
				t.Errorf("RecordMapping(%q, %v) x%d: mappings +%d, cancellations +%d, placements +%d, cost evaluations +%d",
					h, err, calls, m.mappings.Value()-done, m.cancellations.Value()-cancelled, m.placements.Value()-placed, m.costEvals.Value()-evals)
			}
		}
	}
}
