package memsim

import "testing"

// TestNewSelectsEngine: New builds the one engine, the sequential
// Hierarchy, for any level list it accepts, and rejects an empty one.
func TestNewSelectsEngine(t *testing.T) {
	for _, levels := range [][]CacheConfig{DefaultLevels(), DefaultLevels()[:1], threeLevels()} {
		sim := MustNew(Config{Levels: levels})
		if _, ok := sim.(*Hierarchy); !ok {
			t.Fatalf("%s built %T, want *Hierarchy", FormatGeometry(levels), sim)
		}
		sim.Close()
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// threeLevels is a small validated geometry: 8, 16 and 32 sets.
func threeLevels() []CacheConfig {
	return []CacheConfig{
		{Name: "L1", SizeBytes: 1 << 10, LineBytes: 64, Ways: 2},  // 8 sets
		{Name: "L2", SizeBytes: 4 << 10, LineBytes: 64, Ways: 4},  // 16 sets
		{Name: "L3", SizeBytes: 16 << 10, LineBytes: 64, Ways: 8}, // 32 sets
	}
}

func TestParseGeometryPaper(t *testing.T) {
	cfgs, err := ParseGeometry("32K/64:8,256K/64:8,20M/64:20")
	if err != nil {
		t.Fatal(err)
	}
	want := PaperLevels()
	if len(cfgs) != len(want) {
		t.Fatalf("parsed %d levels, want %d", len(cfgs), len(want))
	}
	for k := range want {
		if cfgs[k] != want[k] {
			t.Fatalf("level %d = %+v, want %+v", k, cfgs[k], want[k])
		}
	}
}

func TestGeometryRoundTrip(t *testing.T) {
	for _, levels := range [][]CacheConfig{PaperLevels(), DefaultLevels(), threeLevels()} {
		s := FormatGeometry(levels)
		back, err := ParseGeometry(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got := FormatGeometry(back); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
		for k := range levels {
			if back[k].SizeBytes != levels[k].SizeBytes ||
				back[k].LineBytes != levels[k].LineBytes ||
				back[k].Ways != levels[k].Ways {
				t.Fatalf("%q level %d = %+v, want %+v", s, k, back[k], levels[k])
			}
		}
	}
}

func TestParseGeometryRejects(t *testing.T) {
	bad := []string{
		"",                    // no levels
		"32K",                 // missing line/ways
		"32K/64",              // missing ways
		"32K:8",               // missing line
		"32K/48:8",            // non-power-of-two line
		"32K/64:7",            // sets not a power of two
		"20M/64:16",           // 20480 sets: not a power of two
		"-32K/64:8",           // negative size
		"32K/64:8,256K/128:8", // mixed line sizes
		"32K/64:eight",        // non-numeric ways
		"one/64:8",            // non-numeric size
	}
	for _, s := range bad {
		if _, err := ParseGeometry(s); err == nil {
			t.Fatalf("geometry %q accepted", s)
		}
	}
}
