package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twist/internal/nest"
	"twist/internal/obs"
	"twist/internal/workloads"
)

// suiteGoldenPath pins the run and misscurve result bytes of every suite
// benchmark under every layout family the serve workloads use, so a change
// to the traced-simulation path (trace generation, layout rewriting, the
// cache simulator, the reuse analyzer) cannot move a byte unnoticed. Each
// line is "<job name> <compact result JSON>". Regenerate, after an
// intentional result change, with:
//
//	go test ./internal/serve -run TestSuiteGolden -update-golden
const suiteGoldenPath = "testdata/suite.golden"

var suiteLayouts = []string{"buildorder", "veb", "schedule"}

type suiteJob struct {
	name string
	spec Spec
}

// suiteGoldenJobs lists the pinned jobs in file order: per benchmark and
// layout, four run jobs (workers 1 and 2 × flag_mode counter and sets) and
// one misscurve job.
func suiteGoldenJobs() []suiteJob {
	var jobs []suiteJob
	for _, bench := range workloads.Names() {
		for _, lay := range suiteLayouts {
			for _, w := range []int{1, 2} {
				for _, fm := range []string{"counter", "sets"} {
					jobs = append(jobs, suiteJob{fmt.Sprintf("run/%s/%s/w%d/%s", bench, lay, w, fm), &RunSpec{
						Workload: bench, Variant: "twisted", Scale: goldenScale, Seed: goldenSeed,
						Workers: w, FlagMode: fm, Layout: lay,
					}})
				}
			}
			jobs = append(jobs, suiteJob{fmt.Sprintf("misscurve/%s/%s", bench, lay), &MissCurveSpec{
				Workload: bench, Variant: "twisted", Scale: goldenScale, Seed: goldenSeed, Layout: lay,
			}})
		}
	}
	return jobs
}

// suiteResult runs one pinned job through the library call and returns
// its compact JSON encoding.
func suiteResult(t *testing.T, s Spec) []byte {
	t.Helper()
	var (
		out any
		err error
	)
	switch s := s.(type) {
	case *RunSpec:
		out, err = RunJob(context.Background(), s)
	case *MissCurveSpec:
		out, err = MissCurveJob(context.Background(), s)
	default:
		t.Fatalf("unexpected spec %T", s)
	}
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSuiteGolden(t *testing.T) {
	t.Parallel()
	jobs := suiteGoldenJobs()
	got := make(map[string][]byte, len(jobs))
	for _, job := range jobs {
		got[job.name] = suiteResult(t, job.spec)
	}

	if *updateGolden {
		var buf bytes.Buffer
		for _, job := range jobs {
			fmt.Fprintf(&buf, "%s %s\n", job.name, got[job.name])
		}
		if err := os.MkdirAll(filepath.Dir(suiteGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(suiteGoldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d jobs)", suiteGoldenPath, len(jobs))
		return
	}

	f, err := os.Open(suiteGoldenPath)
	if err != nil {
		t.Fatalf("%v — regenerate with -update-golden", err)
	}
	defer f.Close()
	want := map[string][]byte{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		name, body, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		want[name] = []byte(body)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(jobs) {
		t.Errorf("%s holds %d jobs, the test pins %d", suiteGoldenPath, len(want), len(jobs))
	}
	for _, job := range jobs {
		if !bytes.Equal(got[job.name], want[job.name]) {
			t.Errorf("%s drifted from %s\ngot:  %s\nwant: %s", job.name, suiteGoldenPath, got[job.name], want[job.name])
		}
	}
}

// TestRunJobSequentialMatchesRunSeq pins where a sequential run job's
// engine signals come from: Stats, EngineOps and the checksum must equal a
// plain untraced RunSeq of the same instance, whichever pass the job takes
// them from and whatever layout its simulation runs under.
func TestRunJobSequentialMatchesRunSeq(t *testing.T) {
	t.Parallel()
	for _, bench := range workloads.Names() {
		for _, lay := range suiteLayouts {
			for _, fm := range []string{"counter", "sets"} {
				res, err := RunJob(context.Background(), &RunSpec{
					Workload: bench, Variant: "twisted", Scale: goldenScale, Seed: goldenSeed,
					Workers: 1, FlagMode: fm, Layout: lay,
				})
				if err != nil {
					t.Fatal(err)
				}
				in, err := workloads.ByName(bench, goldenScale, goldenSeed)
				if err != nil {
					t.Fatal(err)
				}
				flags, err := nest.ParseFlagMode(fm)
				if err != nil {
					t.Fatal(err)
				}
				st, engOps, err := in.RunSeq(context.Background(), nest.Twisted(), func(e *nest.Exec) { e.Flags = flags })
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats != st || res.EngineOps != engOps || res.Checksum != obs.FormatUint(in.Checksum()) {
					t.Errorf("%s/%s/%s: RunJob stats %+v engine_ops %d checksum %s; RunSeq stats %+v engine_ops %d checksum %s",
						bench, lay, fm, res.Stats, res.EngineOps, res.Checksum, st, engOps, obs.FormatUint(in.Checksum()))
				}
			}
		}
	}
}
