package serve

import (
	"context"
	"testing"

	"twist/internal/workloads"
)

// The miss-path microbenchmarks time one sequential run job and one
// misscurve job per suite benchmark through the library call, so a
// regression in trace generation, layout rewriting, the cache simulator or
// the reuse analyzer shows per benchmark without the perfbench harness:
//
//	go test -run '^$' -bench 'RunJob|MissCurveJob' -benchmem ./internal/serve/
//
// Each op builds its instance, as a served miss does.
const benchScale, benchSeed = 1024, 1

func BenchmarkRunJob(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				s := &RunSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: "veb"}
				if _, err := RunJob(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMissCurveJob(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for k := 0; k < b.N; k++ {
				s := &MissCurveSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: "veb"}
				if _, err := MissCurveJob(context.Background(), s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
