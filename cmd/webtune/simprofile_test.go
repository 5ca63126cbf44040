package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureSimProfile drives the CLI with -simprofile and returns the folded
// file bytes and the CLI's stdout.
func captureSimProfile(t *testing.T, workers int, args ...string) (folded, stdout string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prof.folded")
	full := append([]string{"-workers", fmt.Sprint(workers), "-simprofile", path}, args...)
	code, out, stderr := runCLI(t, full...)
	if code != 0 {
		t.Fatalf("webtune %s: exit code %d, stderr: %s", strings.Join(full, " "), code, stderr)
	}
	fb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(fb), out
}

// TestSimProfileDeterministicAcrossWorkers is the profiler's acceptance
// bar: -simprofile must emit byte-identical folded stacks at -workers 1
// and -workers 4, because everything in the profile derives from the
// deterministic event sequence and the collector merges per-unit profiles
// in a fixed order.
func TestSimProfileDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation determinism test")
	}
	args := []string{"-scale", "tiny", "-iters", "4", "-replicates", "2", "figure4"}
	folded1, out1 := captureSimProfile(t, 1, args...)
	folded4, _ := captureSimProfile(t, 4, args...)
	if folded1 != folded4 {
		t.Error("folded stacks differ between -workers 1 and -workers 4")
	}
	if folded1 == "" {
		t.Fatal("folded profile is empty")
	}
	// The folded file is flamegraph.pl/speedscope input: every line is
	// "frames weight" with semicolon-separated frames and an integer weight.
	for i, line := range strings.Split(strings.TrimRight(folded1, "\n"), "\n") {
		fields := strings.Split(line, " ")
		if len(fields) != 2 {
			t.Fatalf("folded line %d has %d space-separated fields, want 2: %q", i+1, len(fields), line)
		}
		if fields[0] == "" {
			t.Fatalf("folded line %d has an empty stack: %q", i+1, line)
		}
	}
	// Sanity: the rollup reaches stdout and attributes the simulation's
	// dominant components.
	if !strings.Contains(out1, "simnet event-loop profile:") {
		t.Error("stdout lacks the profile rollup")
	}
	for _, frame := range []string{"browser/think", "page/", "tier/"} {
		if !strings.Contains(folded1, frame) {
			t.Errorf("profile lacks expected frame %q", frame)
		}
	}
}

// TestGoldenSimProfile pins the folded bytes of the tiny figure7a run, at
// -workers 1 and 4, against a golden file. The workers-equality test above
// only compares a run with itself; this one catches a profiler rewrite that
// changes the folded output consistently at every worker count.
// Regenerate with: go test ./cmd/webtune/ -run TestGoldenSimProfile -update
func TestGoldenSimProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden test")
	}
	golden := filepath.Join("testdata", "figure7a-simprofile.golden")
	for _, workers := range []int{1, 4} {
		folded, _ := captureSimProfile(t, workers, "-scale", "tiny", "figure7a")
		if *update && workers == 1 {
			if err := os.WriteFile(golden, []byte(folded), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (regenerate with -update): %v", err)
		}
		if folded != string(want) {
			t.Errorf("-workers %d: folded profile differs from %s (regenerate with -update if the change is intended)",
				workers, golden)
		}
	}
}

// TestSimProfileSinkFailFast: an uncreatable -simprofile path must abort
// before any simulation runs, like the other telemetry sinks.
func TestSimProfileSinkFailFast(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "p.folded")
	code, stdout, stderr := runCLI(t, "-simprofile", missing, "table1")
	if code != 2 {
		t.Errorf("exit code = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "-simprofile") {
		t.Errorf("stderr = %q, want it to name -simprofile", stderr)
	}
	if strings.Contains(stdout, "===") {
		t.Errorf("experiment ran despite the bad sink; stdout: %q", stdout)
	}
}
