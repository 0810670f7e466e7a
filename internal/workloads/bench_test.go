package workloads

import (
	"testing"

	"twist/internal/nest"
)

// BenchmarkSuiteRunSeq times one sequential run of each suite benchmark
// under the original and twisted schedules and reports the cost per visit
// (Stats.Iterations), so a base-case or engine regression shows per
// benchmark without the perfbench harness:
//
//	go test -run '^$' -bench SuiteRunSeq ./internal/workloads/
func BenchmarkSuiteRunSeq(b *testing.B) {
	const scale, seed = 2048, 1
	schedules := []struct {
		name string
		v    nest.Variant
	}{{"original", nest.Original()}, {"twisted", nest.Twisted()}}
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			in, err := ByName(name, scale, seed)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range schedules {
				b.Run(s.name, func(b *testing.B) {
					b.ReportAllocs()
					var visits int64
					for k := 0; k < b.N; k++ {
						st, _, err := in.RunSeq(nil, s.v, nil)
						if err != nil {
							b.Fatal(err)
						}
						visits += st.Iterations
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits), "ns/visit")
				})
			}
		})
	}
}
