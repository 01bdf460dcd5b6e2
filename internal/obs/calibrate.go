package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/sched"
	"repro/internal/simnet"
	"repro/internal/synth"
)

// ckey identifies one calibration aggregate: a schedule family at a rank
// count and payload bucket, on the calibrator's topology. stages keeps an
// order-fixed program's bins apart from its same-named plain base's.
type ckey struct {
	program string
	p       int32
	bucket  int
	stages  int32
}

// ckState is the running aggregate of one key.
type ckState struct {
	samples   uint64
	lastRatio float64
	sumRatio  float64
	// Least-squares accumulators for the alpha/beta residual fit: x is the
	// predicted schedule time, y the measured one, across all payloads of
	// the bucket. The intercept is the unmodelled per-schedule latency
	// (alpha residual); the slope is the bandwidth-term ratio (beta ratio).
	n, sumX, sumY, sumXX, sumXY float64
	// Per-pricing-stage measured/predicted second sums for the stage table.
	stageMeas []float64
	stagePred []float64
	stageRep  []int
}

// fit returns the least-squares intercept (seconds) and slope of measured
// against predicted time. With fewer than two distinct x values the fit
// degenerates to a pure slope through the origin.
func (s *ckState) fit() (alpha, beta float64) {
	den := s.n*s.sumXX - s.sumX*s.sumX
	if s.n >= 2 && den > 1e-24 {
		beta = (s.n*s.sumXY - s.sumX*s.sumY) / den
		alpha = (s.sumY - beta*s.sumX) / s.n
		return alpha, beta
	}
	if s.sumX > 0 {
		return 0, s.sumY / s.sumX
	}
	return 0, 0
}

// Calibrator joins measured execution Profiles against the cost model's
// per-stage predictions for the same compiled programs on one machine and
// layout, maintaining per-(program, p, size bucket) skew aggregates and their
// metric series.
type Calibrator struct {
	machine *simnet.Machine
	layout  []int
	topo    string

	mu    sync.Mutex
	state map[ckey]*ckState
	// explained caches per-program breakdowns: programs are compile-cached
	// and overwhelmingly executed at one block size, so a tiny cache keyed
	// by identity removes Explain from the observation path.
	explained map[explainKey]*Breakdown
}

type explainKey struct {
	prog       *sched.Program
	blockBytes int
}

// Breakdown is the executed-stage view of a simnet breakdown: the predicted
// time of what executeProgram actually runs, every stage of the pricing view
// (the post-copy epilogue is priced for callers but runs outside the step
// loop).
type Breakdown struct {
	// Full is the underlying simnet per-stage breakdown, pricing view.
	Full *simnet.Breakdown
	// ExecutedSeconds sums Seconds×Repeat over every stage.
	ExecutedSeconds float64
}

// NewCalibrator returns a calibrator for programs executed on machine m with
// ranks placed by layout (rank→core, as passed to simnet pricing).
func NewCalibrator(m *simnet.Machine, layout []int) *Calibrator {
	lay := make([]int, len(layout))
	copy(lay, layout)
	return &Calibrator{
		machine:   m,
		layout:    lay,
		topo:      synth.TopologyKey(m),
		state:     make(map[ckey]*ckState),
		explained: make(map[explainKey]*Breakdown),
	}
}

// Topology returns the calibrator's topology fingerprint key.
func (c *Calibrator) Topology() string { return c.topo }

// breakdown returns the cached executed-stage prediction for prog at
// blockBytes. Callers hold c.mu.
func (c *Calibrator) breakdown(prog *sched.Program, blockBytes int) (*Breakdown, error) {
	k := explainKey{prog, blockBytes}
	if bd, ok := c.explained[k]; ok {
		return bd, nil
	}
	full, err := c.machine.ExplainProgram(prog, c.layout, blockBytes)
	if err != nil {
		return nil, err
	}
	bd := &Breakdown{Full: full}
	for _, st := range full.Stages {
		bd.ExecutedSeconds += st.Seconds * float64(st.Repeat)
	}
	c.explained[k] = bd
	return bd, nil
}

// ObserveExecution joins one measured profile of prog against the model's
// prediction and updates the skew aggregates and metrics.
// The profile is passed by value for the same reason Recorder.Record is:
// the executor's stack copy must not escape. The observation path itself is
// not allocation-free (label resolution, map growth) — worlds that need the
// zero-alloc executor guarantee leave the calibrator unconfigured and join
// flight snapshots offline instead.
func (c *Calibrator) ObserveExecution(prog *sched.Program, p Profile) {
	if c == nil || prog == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bd, err := c.breakdown(prog, int(p.BlockBytes))
	if err != nil || bd.ExecutedSeconds <= 0 || p.TotalSeconds <= 0 {
		calibrationErrors.Inc()
		return
	}
	ratio := p.TotalSeconds / bd.ExecutedSeconds
	bucket := synth.SizeBucket(int(p.BlockBytes) * int(p.Blocks))
	k := ckey{program: p.Program, p: p.P, bucket: bucket, stages: p.Stages}
	st := c.state[k]
	if st == nil {
		ns := len(bd.Full.Stages)
		st = &ckState{
			stageMeas: make([]float64, ns),
			stagePred: make([]float64, ns),
			stageRep:  make([]int, ns),
		}
		for i, sc := range bd.Full.Stages {
			st.stageRep[i] = sc.Repeat
		}
		c.state[k] = st
	}
	st.samples++
	st.lastRatio = ratio
	st.sumRatio += ratio
	st.n++
	x, y := bd.ExecutedSeconds, p.TotalSeconds
	st.sumX += x
	st.sumY += y
	st.sumXX += x * x
	st.sumXY += x * y
	for i, sc := range bd.Full.Stages {
		if i >= len(st.stageMeas) {
			continue
		}
		st.stagePred[i] += sc.Seconds * float64(sc.Repeat)
		if i < MaxProfileStages {
			st.stageMeas[i] += p.StageSeconds[i]
		}
	}

	calibrationObservations.Inc()
	bstr := fmt.Sprintf("%d", bucket)
	skewGauge.With("topology", c.topo, "program", p.Program, "bucket", bstr).Set(int64(ratio * 1000))
	skewHist.With("topology", c.topo, "program", p.Program, "bucket", bstr).Observe(ratio)
	alpha, beta := st.fit()
	alphaResidual.With("topology", c.topo, "program", p.Program, "bucket", bstr).Set(int64(alpha * 1e9))
	betaRatio.With("topology", c.topo, "program", p.Program, "bucket", bstr).Set(int64(beta * 1000))
}

// StageSkew is one pricing stage's measured-vs-predicted aggregate.
type StageSkew struct {
	Index     int     `json:"index"`
	Repeat    int     `json:"repeat"`
	Measured  float64 `json:"measured_seconds"`
	Predicted float64 `json:"predicted_seconds"`
	Ratio     float64 `json:"ratio"`
}

// ReportEntry is one key's calibration aggregate.
type ReportEntry struct {
	Topology   string      `json:"topology"`
	Program    string      `json:"program"`
	P          int         `json:"p"`
	Bucket     int         `json:"bucket"`
	Samples    uint64      `json:"samples"`
	LastRatio  float64     `json:"last_ratio"`
	MeanRatio  float64     `json:"mean_ratio"`
	AlphaResid float64     `json:"alpha_residual_seconds"`
	BetaRatio  float64     `json:"beta_ratio"`
	Stages     []StageSkew `json:"stages"`
}

// Report is a point-in-time snapshot of every calibration aggregate.
type Report struct {
	Topology string        `json:"topology"`
	Entries  []ReportEntry `json:"entries"`
}

// Report snapshots the calibrator's aggregates, sorted by (program, p,
// bucket, stage count).
func (c *Calibrator) Report() *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{Topology: c.topo}
	for k, st := range c.state {
		alpha, beta := st.fit()
		e := ReportEntry{
			Topology:   c.topo,
			Program:    k.program,
			P:          int(k.p),
			Bucket:     k.bucket,
			Samples:    st.samples,
			LastRatio:  st.lastRatio,
			MeanRatio:  st.sumRatio / float64(st.samples),
			AlphaResid: alpha,
			BetaRatio:  beta,
		}
		for i := range st.stagePred {
			ss := StageSkew{
				Index:     i,
				Repeat:    st.stageRep[i],
				Measured:  st.stageMeas[i],
				Predicted: st.stagePred[i],
			}
			if ss.Predicted > 0 {
				ss.Ratio = ss.Measured / ss.Predicted
			}
			e.Stages = append(e.Stages, ss)
		}
		r.Entries = append(r.Entries, e)
	}
	sort.Slice(r.Entries, func(i, j int) bool {
		a, b := &r.Entries[i], &r.Entries[j]
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		if a.P != b.P {
			return a.P < b.P
		}
		if a.Bucket != b.Bucket {
			return a.Bucket < b.Bucket
		}
		return len(a.Stages) < len(b.Stages)
	})
	return r
}

// String renders the report as the predicted-vs-measured table printed by
// the -calibrate CLI modes.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "calibration on topology %s\n", r.Topology)
	if len(r.Entries) == 0 {
		sb.WriteString("  no joined observations\n")
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-28s %5s %6s %7s %9s %9s %12s %9s\n",
		"program", "p", "bucket", "samples", "ratio", "mean", "alpha-res", "beta")
	for _, e := range r.Entries {
		fmt.Fprintf(&sb, "%-28s %5d %6d %7d %8.3fx %8.3fx %10.2fus %8.3fx\n",
			e.Program, e.P, e.Bucket, e.Samples, e.LastRatio, e.MeanRatio,
			e.AlphaResid*1e6, e.BetaRatio)
		for _, ss := range e.Stages {
			fmt.Fprintf(&sb, "    stage %-3d x%-5d measured %10.3fus predicted %10.3fus ratio %8.3fx\n",
				ss.Index, ss.Repeat, ss.Measured*1e6, ss.Predicted*1e6, ss.Ratio)
		}
	}
	return sb.String()
}
