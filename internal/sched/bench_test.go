package sched

import (
	"fmt"
	"testing"
)

// BenchmarkVerify replays every registry builder's schedule at p = 64 against
// its family's contract — the check a synth search runs on every candidate.
// Pairwise all-to-all (63 stages over a 4096-block space) is the heavy case.
func BenchmarkVerify(b *testing.B) {
	for _, f := range Families() {
		for _, name := range f.BuilderNames() {
			s, err := f.Build(name, 64)
			if err != nil {
				continue
			}
			b.Run(f.Name+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := f.Verify(s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

var expandSink *Program

// BenchmarkExpand compiles a schedule and builds its executable view, the
// cold path of a job's first collective call on a new program: what the
// job-launch workload expands (ring, recursive doubling, binomial allreduce
// and binomial broadcast at p = 128, Bruck at p = 48), plus the p = 64
// pairwise all-to-all, the largest view a 64-rank job builds.
func BenchmarkExpand(b *testing.B) {
	for _, c := range []struct {
		fam  FamilyID
		name string
		p    int
	}{
		{FamilyAllgather, "ring", 128},
		{FamilyAllgather, "recursive-doubling", 128},
		{FamilyAllgather, "bruck", 48},
		{FamilyAllreduce, "allreduce", 128},
		{FamilyBroadcast, "binomial-broadcast", 128},
		{FamilyAlltoall, "pairwise-alltoall", 64},
	} {
		f, err := c.fam.Desc()
		if err != nil {
			b.Fatal(err)
		}
		s, err := f.Build(c.name, c.p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/p%d", c.name, c.p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				prog, err := Compile(s)
				if err == nil {
					err = prog.EnsureExecutable()
				}
				if err != nil {
					b.Fatal(err)
				}
				expandSink = prog
			}
		})
	}
}

var fingerprintSink string

// BenchmarkFingerprint hashes the p = 64 pairwise all-to-all, the largest
// transfer list a 64-rank search fingerprints.
func BenchmarkFingerprint(b *testing.B) {
	s, err := PairwiseAlltoall(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink = Fingerprint(s)
	}
}
