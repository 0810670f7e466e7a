package memsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// Quick-check property over randomly constructed *valid* hierarchies: every
// geometry FormatGeometry can print reparses to the identical configs, and
// the printed form is a fixpoint (format ∘ parse ∘ format = format). The
// generator builds levels from (sets, ways, line) triples so validity —
// power-of-two sets and lines, uniform line size — holds by construction;
// fixed-case coverage lives in config_test.go.
func TestQuickGeometryRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	lines := []int{32, 64, 128}
	for trial := 0; trial < 500; trial++ {
		line := lines[rng.Intn(len(lines))]
		cfgs := make([]CacheConfig, rng.Intn(4)+1)
		for k := range cfgs {
			sets := 1 << rng.Intn(12)
			ways := rng.Intn(24) + 1
			cfgs[k] = CacheConfig{
				Name:      "L" + string(rune('1'+k)),
				SizeBytes: sets * ways * line,
				LineBytes: line,
				Ways:      ways,
			}
		}
		s := FormatGeometry(cfgs)
		got, err := ParseGeometry(s)
		if err != nil {
			t.Fatalf("FormatGeometry(%+v) = %q does not parse: %v", cfgs, s, err)
		}
		if !reflect.DeepEqual(got, cfgs) {
			t.Fatalf("round trip through %q:\n got %+v\nwant %+v", s, got, cfgs)
		}
		if again := FormatGeometry(got); again != s {
			t.Fatalf("format not a fixpoint: %q reformats to %q", s, again)
		}
	}
}

// FuzzParseGeometry: arbitrary input never panics, and any accepted geometry
// round-trips through FormatGeometry to equal configs — the invariant the
// BENCH baselines rely on when they pin a geometry string.
func FuzzParseGeometry(f *testing.F) {
	for _, s := range []string{
		"32K/64:8,256K/64:8,20M/64:20", "64/64:1", "1G/128:16",
		"32K/64:8,", "32K/48:8", "0/64:8", "-32K/64:8", "junk", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		cfgs, err := ParseGeometry(s)
		if err != nil {
			return
		}
		out := FormatGeometry(cfgs)
		rt, err := ParseGeometry(out)
		if err != nil {
			t.Fatalf("ParseGeometry(%q) ok, but its format %q does not reparse: %v", s, out, err)
		}
		if !reflect.DeepEqual(rt, cfgs) {
			t.Fatalf("ParseGeometry(%q) round-trips through %q to different configs", s, out)
		}
	})
}

// TestParseGeometryAllocatesNoLevels: ParseGeometry validates a geometry
// without building it, so a huge one costs no more to parse than a small
// one (1G/64:8 is 16M lines, 128 MiB of tags if its levels were built). Not
// parallel: it reads the process-wide allocation counter.
func TestParseGeometryAllocatesNoLevels(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ParseGeometry("1G/64:8"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("ParseGeometry(%q) allocated %d bytes, want under 1 MiB", "1G/64:8", got)
	}
}
