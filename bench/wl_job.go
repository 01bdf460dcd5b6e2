package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hwdisc"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/topology"
)

// jobCall is one collective call of a short job.
type jobCall uint8

const (
	jReordRD jobCall = iota
	jReordRing
	jReordBruck
	jReordAuto
	jFlatAuto
	jAllreduce
	jBroadcast
)

const jobBlk = 1 << 10 // every job call moves 1 KiB blocks

// jobSpec is one whole short job: the timed unit of job-launch.
type jobSpec struct {
	p         int
	layout    topology.LayoutKind
	heuristic string // rdmh | rmh | bkmh
	calls     []jobCall
	seq       int
}

// jobRound is the fixed composition of ten jobs: p=16, 48 (not a power of
// two) and 64 at 30% each, p=128 at 10%. Power-of-two jobs plan with RDMH
// and mix recursive-doubling / ring / auto allgathers with an allreduce and
// a broadcast; p=48 jobs plan with RMH or BKMH and use ring / Bruck / auto,
// because recursive doubling rejects non-power-of-two communicators. The
// seed orders the jobs and each job's first seven calls; the eighth call is
// always the verified one.
func jobRound(rng *rand.Rand, round, seq0 int) []jobSpec {
	ps := []int{16, 16, 16, 48, 48, 48, 64, 64, 64, 128}
	jobs := make([]jobSpec, len(ps))
	for i, p := range ps {
		j := jobSpec{p: p, layout: topology.AllLayouts[(i+round)%len(topology.AllLayouts)]}
		if p&(p-1) == 0 {
			j.heuristic = "rdmh"
			j.calls = []jobCall{jReordRD, jReordRD, jReordRing, jReordAuto, jFlatAuto, jAllreduce, jBroadcast}
		} else {
			j.heuristic = []string{"rmh", "bkmh"}[(i+round)%2]
			j.calls = []jobCall{jReordRing, jReordRing, jReordBruck, jReordBruck, jReordAuto, jReordAuto, jFlatAuto}
		}
		rng.Shuffle(len(j.calls), func(a, b int) { j.calls[a], j.calls[b] = j.calls[b], j.calls[a] })
		if p&(p-1) == 0 {
			j.calls = append(j.calls, jReordRD)
		} else {
			j.calls = append(j.calls, jReordRing)
		}
		jobs[i] = j
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for i := range jobs {
		jobs[i].seq = seq0 + i
	}
	return jobs
}

// programs is how many distinct (algorithm, p) schedules the job is expected
// to compile, given where AlgAuto's selection thresholds are on the seed
// commit (README, "bypassed" predictions).
func (j *jobSpec) programs() int {
	algs := map[string]bool{}
	for _, c := range j.calls {
		switch c {
		case jReordRD:
			algs["recursive-doubling"] = true
		case jReordRing:
			algs["ring"] = true
		case jReordBruck:
			algs["bruck"] = true
		case jReordAuto, jFlatAuto: // 1 KiB is at the ring threshold, not above it
			if j.p&(j.p-1) == 0 {
				algs["recursive-doubling"] = true
			} else {
				algs["bruck"] = true
			}
		case jAllreduce:
			algs["allreduce"] = true
		}
	}
	return len(algs)
}

const jobSecondsPerRound = 0.2

// jobCluster hosts every job: 16 dual-socket quad-core nodes under a
// two-level fat-tree; a job of p ranks takes the first p/8 nodes.
func jobCluster() (*topology.Cluster, error) {
	return topology.NewCluster(16, 2, 4, topology.TwoLevelFatTree(4, 4, 2))
}

var jobHeuristics = map[string]core.Heuristic{"rdmh": core.RDMH, "rmh": core.RMH, "bkmh": core.BKMH}

// runJob is one job, start to teardown. It returns the ranks' final recv
// buffers so that verification can run after the timer has stopped.
func runJob(j *jobSpec, opts ...mpi.Option) ([][]byte, error) {
	sched.ResetCompileCache() // a new job is a new process
	cluster, err := jobCluster()
	if err != nil {
		return nil, err
	}
	layout, err := topology.Layout(cluster, j.p, j.layout)
	if err != nil {
		return nil, err
	}
	disc, err := hwdisc.Discover(cluster, layout, hwdisc.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	mapping, err := jobHeuristics[j.heuristic](disc.Distances, nil)
	if err != nil {
		return nil, err
	}
	final := make([][]byte, j.p)
	err = mpi.Run(j.p, func(c *mpi.Comm) error {
		re, err := collective.NewReordered(c, mapping, sched.InitComm)
		if err != nil {
			return err
		}
		me := c.Rank()
		send := make([]byte, jobBlk)
		recv := make([]byte, j.p*jobBlk)
		for n, call := range j.calls {
			seq := j.seq*16 + n
			fillBlock(send, dataBase(me, seq), 1)
			switch call {
			case jReordRD:
				err = re.Allgather(send, recv, collective.AlgRecursiveDoubling)
			case jReordRing:
				err = re.Allgather(send, recv, collective.AlgRing)
			case jReordBruck:
				err = re.Allgather(send, recv, collective.AlgBruck)
			case jReordAuto:
				err = re.Allgather(send, recv, collective.AlgAuto)
			case jFlatAuto:
				err = collective.Allgather(c, send, recv, collective.AlgAuto)
			case jAllreduce:
				err = collective.Allreduce(c, send, addBytes)
			case jBroadcast:
				err = collective.Broadcast(c, 0, send)
			}
			if err != nil {
				return fmt.Errorf("call %d: %w", n, err)
			}
		}
		final[me] = recv
		return nil
	}, opts...)
	return final, err
}

// verifyJob checks every rank's final allgather output, closed form.
func verifyJob(j *jobSpec, final [][]byte) error {
	seq := j.seq*16 + len(j.calls) - 1
	scratch := make([]byte, jobBlk)
	for rank, recv := range final {
		if len(recv) != j.p*jobBlk {
			return fmt.Errorf("rank %d: final recv has %d bytes, want %d", rank, len(recv), j.p*jobBlk)
		}
		if err := expectBlocks(recv, scratch, jobBlk, 1, func(r int) int { return dataBase(r, seq) }); err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

func runJobLaunch(cfg *runConfig) (*result, error) {
	res := &result{Workload: wJobLaunch}
	rounds := cfg.rounds(jobSecondsPerRound)
	type instance struct{ warm, jobs []jobSpec }
	inst, setupS, err := repeatSetup(cfg.setups, func() (*instance, error) {
		rng := rand.New(rand.NewSource(cfg.seed))
		in := &instance{}
		for r := 0; r < rounds/20+1; r++ {
			in.warm = append(in.warm, jobRound(rng, r, 0)...)
		}
		for r := 0; r < rounds; r++ {
			in.jobs = append(in.jobs, jobRound(rng, r, 1000+r*10)...)
		}
		for i := range in.warm { // untimed warm-up
			final, err := runJob(&in.warm[i])
			if err == nil {
				err = verifyJob(&in.warm[i], final)
			}
			if err != nil {
				return nil, fmt.Errorf("job-launch warm-up: %w", err)
			}
		}
		return in, nil
	}, func(*instance) {})
	if err != nil {
		return nil, err
	}
	var s samples
	wantCompiles := 0
	before, memBefore := ownMetrics(), ownMem()
	for i := range inst.jobs {
		j := &inst.jobs[i]
		if i%10 == 0 {
			s.nextRound()
		}
		wantCompiles += j.programs()
		start := time.Now()
		final, err := runJob(j)
		end := time.Now()
		if err == nil {
			err = verifyJob(j, final) // outside the timed window
		}
		s.add(end.Sub(start), err)
		if cfg.trace {
			root := cfg.rec.add(fmt.Sprintf("job.op/p%d", j.p), start, end, -1, j.seq)
			if i%10 == 0 {
				replayJobLayers(cfg.rec, root, j)
			}
		}
	}
	memAfter := ownMem()
	d := ownMetrics().delta(before)
	res.endToEnd(&s, setupS, allocKB(memBefore, memAfter, s.attempted))
	// Layer replay compiles too, so the prediction is checked untraced: with
	// the compile cache reset at job start, every job expands at least one
	// program. How many exactly depends on AlgAuto's thresholds, so that
	// count is a note. The cache-miss counter runs higher than the expansions
	// because ranks that race past the lookup each compile the sized view
	// before one of them wins the insert (README).
	if !cfg.trace {
		expanded, misses := d.get(`schedule_compile_seconds_count{view="exec"}`), d.sum("schedule_cache_misses_total")
		res.check(expanded >= float64(len(inst.jobs)) && misses >= expanded,
			"job-launch compiles cold in every job: %v programs expanded and %v compile-cache misses over %d jobs",
			expanded, misses, len(inst.jobs))
		res.note(expanded == float64(wantCompiles),
			"cold compiles equal the distinct (algorithm, p) pairs per job: %v expanded, %d expected", expanded, wantCompiles)
	}
	if cfg.trace {
		res.layerMedians(cfg.rec, map[string]layerUnit{
			"sched.compile_cold": msMetric("sched.compile_cold_ms"),
			"sched.expand":       msMetric("sched.expand_ms"),
			"mpi.world_start":    msMetric("mpi.world_start_ms"),
			"mpi.reorder":        msMetric("mpi.reorder_ms"),
			"mpi.split":          msMetric("mpi.split_ms"),
		})
		res.procLayers(memBefore, memAfter, s.attempted)
	}
	return res, nil
}

// replayJobLayers times, for one sampled job, the public calls its launch
// is made of: cold compile and expansion of its ring schedule, an empty
// world start, and communicator reorder and split inside a world.
func replayJobLayers(rec *spanRecorder, parent int, j *jobSpec) {
	s, err := sched.Ring(j.p)
	if err != nil {
		return
	}
	var prog *sched.Program
	rec.call("sched.compile_cold", parent, j.seq, func() { prog, err = sched.Compile(s) })
	if err != nil {
		return
	}
	rec.call("sched.expand", parent, j.seq, func() { prog.EnsureExecutable() }) //nolint:errcheck — timing only
	rec.call("mpi.world_start", parent, j.seq, func() {
		mpi.Run(j.p, func(*mpi.Comm) error { return nil }) //nolint:errcheck — empty body cannot fail
	})
	mapping := core.Identity(j.p)
	for i := range mapping { // reverse: every rank moves
		mapping[i] = j.p - 1 - i
	}
	var t0, t1, t2 time.Time
	mpi.Run(j.p, func(c *mpi.Comm) error { //nolint:errcheck — errors surface as missing spans
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			t0 = time.Now()
		}
		if _, err := c.Reorder(mapping); err != nil {
			return err
		}
		if c.Rank() == 0 {
			t1 = time.Now()
		}
		if _, err := c.Split(c.Rank()%2, c.Rank()); err != nil {
			return err
		}
		if c.Rank() == 0 {
			t2 = time.Now()
		}
		return nil
	})
	if !t2.IsZero() {
		rec.add("mpi.reorder", t0, t1, parent, j.seq)
		rec.add("mpi.split", t1, t2, parent, j.seq)
	}
}
