package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code vocabulary of run(): 0 success, 1 runtime
// failure, 2 usage error. Usage errors must put the usage text on stderr;
// runtime failures must not (the flags were fine — a usage wall would bury
// the actual error).
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		wantErr   string // substring expected on stderr ("" = don't care)
		wantUsage bool   // stderr must (not) contain the usage text
	}{
		{
			name: "success",
			args: []string{"-exp", "inventory", "-scale", "64"},
			code: 0,
		},
		{
			name: "help",
			args: []string{"-h"},
			code: 0,
		},
		{
			name:      "unknown experiment",
			args:      []string{"-exp", "fig99"},
			code:      2,
			wantErr:   `unknown experiment "fig99"`,
			wantUsage: true,
		},
		{
			name:      "bad variant",
			args:      []string{"-exp", "bench", "-schedule", "sideways"},
			code:      2,
			wantErr:   "sideways",
			wantUsage: true,
		},
		{
			// -schedule is the one schedule flag; the old alias is gone.
			name:      "variant flag removed",
			args:      []string{"-exp", "bench", "-variant", "twisted"},
			code:      2,
			wantErr:   "flag provided but not defined: -variant",
			wantUsage: true,
		},
		{
			// One cache simulator: the flag that chose the sharded one is gone.
			name:      "simworkers flag removed",
			args:      []string{"-exp", "fig8b", "-simworkers", "2"},
			code:      2,
			wantErr:   "flag provided but not defined: -simworkers",
			wantUsage: true,
		},
		{
			name:      "bad geometry",
			args:      []string{"-exp", "fig8b", "-geometry", "not-a-hierarchy"},
			code:      2,
			wantErr:   "not-a-hierarchy",
			wantUsage: true,
		},
		{
			name:      "baseline with multiple experiments",
			args:      []string{"-exp", "all", "-baseline", "BENCH_fig7.json"},
			code:      2,
			wantErr:   "-baseline needs a single experiment",
			wantUsage: true,
		},
		{
			name:      "undefined flag",
			args:      []string{"-no-such-flag"},
			code:      2,
			wantUsage: true,
		},
		{
			name:    "runtime failure is not a usage error",
			args:    []string{"-exp", "inventory", "-scale", "64", "-telemetry", "/nonexistent-dir/events.jsonl"},
			code:    1,
			wantErr: "nestbench:",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.code {
				t.Errorf("exit code %d, want %d\nstderr: %s", got, tc.code, stderr.String())
			}
			if tc.wantErr != "" && !strings.Contains(stderr.String(), tc.wantErr) {
				t.Errorf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			hasUsage := strings.Contains(stderr.String(), "Usage: nestbench")
			if tc.wantUsage && !hasUsage {
				t.Errorf("stderr missing usage text:\n%s", stderr.String())
			}
			if !tc.wantUsage && tc.code == 1 && hasUsage {
				t.Errorf("runtime failure printed the usage wall:\n%s", stderr.String())
			}
		})
	}
}
