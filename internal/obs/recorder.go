package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// MaxProfileStages bounds the per-profile stage-time table. Stage times are
// binned by *pricing-view* stage index (repeats of one stage accumulate into
// one bin), so real schedules — a handful of stages even at p=65536 — fit;
// a pathological schedule past the cap records its leading stages and sets
// Truncated.
const MaxProfileStages = 32

// Profile is one measured schedule execution, captured by the executor on
// the sampling rank. It is a plain value — fixed-size arrays, no slices — so
// recording is a struct copy and the ring never allocates.
type Profile struct {
	// Program is the compiled program's name (schedule family label).
	Program string `json:"program"`
	// P and Blocks mirror the program geometry; BlockBytes is the payload
	// per block of this execution.
	P          int32 `json:"p"`
	Blocks     int32 `json:"blocks"`
	BlockBytes int32 `json:"block_bytes"`
	// Rank is the rank that sampled the timings.
	Rank int32 `json:"rank"`
	// UnixNanos stamps the start of the execution.
	UnixNanos int64 `json:"unix_nanos"`
	// Stages is the program's pricing-view stage count (Pre stages
	// included, so indices line up with simnet.Breakdown.Stages). Bins past
	// MaxProfileStages are dropped and Truncated is set.
	Stages    int32 `json:"stages"`
	Truncated bool  `json:"truncated,omitempty"`
	// TotalSeconds is the summed measured stage wall time; Transfers and
	// Bytes count this rank's sends.
	TotalSeconds float64 `json:"total_seconds"`
	Transfers    int64   `json:"transfers"`
	Bytes        int64   `json:"bytes"`
	// StageSeconds[i] is the accumulated wall time of pricing stage i
	// across all its executed repeats; the executor runs every pricing
	// stage, Pre stages included, so every bin is measured.
	StageSeconds [MaxProfileStages]float64 `json:"-"`
}

// AddStage accumulates d seconds into pricing-stage bin i, tracking
// truncation past the fixed cap.
func (p *Profile) AddStage(i int, d float64) {
	p.TotalSeconds += d
	if i < 0 || i >= MaxProfileStages {
		p.Truncated = true
		return
	}
	p.StageSeconds[i] += d
}

// profileAlias strips Profile's marshalling methods so profileJSON does not
// recurse into them.
type profileAlias Profile

// profileJSON is the dump shape: the fixed stage array trimmed to the
// program's stage count.
type profileJSON struct {
	profileAlias
	StageSecondsOut []float64 `json:"stage_seconds"`
}

// MarshalJSON trims the fixed stage array to the profile's stage count.
func (p Profile) MarshalJSON() ([]byte, error) {
	n := int(p.Stages)
	if n > MaxProfileStages {
		n = MaxProfileStages
	}
	if n < 0 {
		n = 0
	}
	return json.Marshal(profileJSON{profileAlias: profileAlias(p), StageSecondsOut: p.StageSeconds[:n:n]})
}

// UnmarshalJSON accepts the dump shape back into the fixed-array profile.
func (p *Profile) UnmarshalJSON(data []byte) error {
	var in profileJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*p = Profile(in.profileAlias)
	for i, v := range in.StageSecondsOut {
		if i >= MaxProfileStages {
			break
		}
		p.StageSeconds[i] = v
	}
	return nil
}

// Recorder is a fixed-size flight ring of Profiles. Writers claim a slot
// with one atomic ticket and guard the copy with a per-slot try-lock, so
// the record path never blocks and never allocates: a writer that collides
// with a reader (or with a writer a full ring-lap ahead) drops its profile
// and counts it instead of waiting. Readers lock slots briefly to take
// consistent copies.
type Recorder struct {
	slots []slot
	mask  uint64
	next  atomic.Uint64 // tickets issued == profiles offered
}

type slot struct {
	mu     sync.Mutex
	ticket uint64 // 0: empty; else the 1-based record ticket
	p      Profile
}

// NewRecorder returns a ring holding the most recent capacity profiles
// (rounded up to a power of two; minimum 16).
func NewRecorder(capacity int) *Recorder {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return len(r.slots) }

// Recorded returns the cumulative number of profiles offered to the ring
// (including any dropped on slot contention).
func (r *Recorder) Recorded() uint64 { return r.next.Load() }

// Record stores p in the ring, overwriting the oldest entry. The profile is
// passed by value deliberately: the caller's stack copy never escapes, so
// the executor's record path stays allocation-free.
func (r *Recorder) Record(p Profile) {
	t := r.next.Add(1)
	s := &r.slots[(t-1)&r.mask]
	if !s.mu.TryLock() {
		profileDrops.Inc()
		return
	}
	s.p = p
	s.ticket = t
	s.mu.Unlock()
	profilesRecorded.Inc()
}

// Snapshot returns the ring's current profiles, oldest first. Not a hot
// path: it locks each slot briefly and allocates the result.
func (r *Recorder) Snapshot() []Profile {
	type stamped struct {
		t uint64
		p Profile
	}
	out := make([]stamped, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.ticket != 0 {
			out = append(out, stamped{s.ticket, s.p})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].t < out[j].t })
	ps := make([]Profile, len(out))
	for i := range out {
		ps[i] = out[i].p
	}
	return ps
}

// Dump is the JSON shape of a flight-ring export.
type Dump struct {
	Capacity int       `json:"capacity"`
	Recorded uint64    `json:"recorded"`
	Reason   string    `json:"reason,omitempty"`
	Profiles []Profile `json:"profiles"`
}

// WriteJSON writes the ring contents as an indented JSON Dump.
func (r *Recorder) WriteJSON(w io.Writer, reason string) error {
	d := Dump{Capacity: r.Capacity(), Recorded: r.Recorded(), Reason: reason,
		Profiles: r.Snapshot()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Watchdog dump wiring. The collective layer registers an mpi watchdog hook
// that calls DumpFlight, so a deadlocked world leaves its last executions on
// disk next to the blocked-rank report.
var dump struct {
	mu   sync.Mutex
	dir  string // "" selects os.TempDir()
	seq  int
	last string
}

// SetWatchdogDumpDir overrides the directory watchdog dumps are written to
// (default: the OS temp directory).
func SetWatchdogDumpDir(dir string) {
	dump.mu.Lock()
	dump.dir = dir
	dump.mu.Unlock()
}

// LastWatchdogDump returns the path of the most recent watchdog dump, or "".
func LastWatchdogDump() string {
	dump.mu.Lock()
	defer dump.mu.Unlock()
	return dump.last
}

// DumpFlight writes the process-wide flight ring to a fresh JSON file and
// returns its path. Safe to call from the watchdog's timer goroutine.
func DumpFlight(reason string) (string, error) {
	dump.mu.Lock()
	defer dump.mu.Unlock()
	dir := dump.dir
	if dir == "" {
		dir = os.TempDir()
	}
	dump.seq++
	path := filepath.Join(dir, fmt.Sprintf("flight-%d-%d.json", os.Getpid(), dump.seq))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := Flight.WriteJSON(f, reason); err != nil {
		return "", err
	}
	dump.last = path
	return path, nil
}
