package sched

import "testing"

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
