package nest

import (
	"fmt"
	"strings"
)

// Engine is a visit-engine label. The package has one visit engine — the
// recursive transcription of the paper's four schedule functions
// (outer/inner/outerSwapped/innerSwapped, Fig 2/3/4a/6b) — and both names
// run it. The label stays because serve requests, oracle verdict labels and
// the benchmark's per-engine metrics name engines; it selects nothing
// (DESIGN.md §4.13).
type Engine int

const (
	// EngineRecursive names the recursive engine. Default.
	EngineRecursive Engine = iota

	// EngineIterative is the other accepted name. It runs the recursive
	// engine, exactly like EngineRecursive.
	EngineIterative
)

// String implements fmt.Stringer. The output round-trips through ParseEngine.
func (e Engine) String() string {
	switch e {
	case EngineRecursive:
		return "recursive"
	case EngineIterative:
		return "iterative"
	}
	return "unknown"
}

// ParseEngine parses an engine name as printed by Engine.String —
// "recursive" or "iterative". It is the single engine-parsing entry point
// shared by the command-line tools and the serving layer.
func ParseEngine(s string) (Engine, error) {
	switch strings.TrimSpace(s) {
	case "recursive":
		return EngineRecursive, nil
	case "iterative":
		return EngineIterative, nil
	}
	return 0, fmt.Errorf("nest: unknown engine %q (want recursive or iterative)", s)
}

// Engines returns both engine labels, in canonical order (recursive first).
func Engines() []Engine { return []Engine{EngineRecursive, EngineIterative} }

// EngineOps reports the engine-overhead counter of the last sequential run:
// one Go call per outer/inner recursion entry, truncated or not — that is,
// Stats.OuterCalls + Stats.InnerCalls, whatever the Engine label says.
func (e *Exec) EngineOps() int64 {
	return e.Stats.OuterCalls + e.Stats.InnerCalls
}
