package serve

import (
	"context"
	"testing"

	"twist/internal/workloads"
)

// The miss-path microbenchmarks time one sequential run job and one
// misscurve job per layout and suite benchmark through the library call, so
// a regression in trace generation, layout rewriting, the cache simulator or
// the reuse analyzer shows per benchmark without the perfbench harness:
//
//	go test -run '^$' -bench 'RunJob|MissCurveJob' -benchmem ./internal/serve/
//
// The veb layout depends only on the topologies; the schedule layout is
// realized online by the traced pass itself. Each op builds its instance,
// as a served miss does.
const benchScale, benchSeed = 1024, 1

var benchLayouts = []string{"veb", "schedule"}

func BenchmarkRunJob(b *testing.B) {
	for _, lay := range benchLayouts {
		for _, name := range workloads.Names() {
			b.Run(lay+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					s := &RunSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: lay}
					if _, err := RunJob(context.Background(), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMissCurveJob(b *testing.B) {
	for _, lay := range benchLayouts {
		for _, name := range workloads.Names() {
			b.Run(lay+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for k := 0; k < b.N; k++ {
					s := &MissCurveSpec{Workload: name, Variant: "twisted", Scale: benchScale, Seed: benchSeed, Layout: lay}
					if _, err := MissCurveJob(context.Background(), s); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
