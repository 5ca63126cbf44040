package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// timingRe matches the wall-clock trailer of every experiment block; the
// duration is the one non-deterministic byte sequence in webtune output.
var timingRe = regexp.MustCompile(`done in \d+(\.\d+)?s`)

// captureRun drives the CLI with -out into a fresh directory and returns
// one document holding the normalized stdout plus every exported file
// (sorted by name), so a single golden pins the report and the CSV/JSON
// schema together.
func captureRun(t *testing.T, workers int, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	full := append([]string{"-workers", fmt.Sprint(workers), "-out", dir}, args...)
	code, stdout, stderr := runCLI(t, full...)
	if code != 0 {
		t.Fatalf("webtune %s: exit code %d, stderr: %s", strings.Join(full, " "), code, stderr)
	}
	var doc strings.Builder
	doc.WriteString("=== stdout ===\n")
	doc.WriteString(timingRe.ReplaceAllString(stdout, "done in X.Xs"))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&doc, "=== file: %s ===\n%s", name, data)
	}
	return doc.String()
}

// TestGoldenReports locks the text reports and exported CSV/JSON of the
// replicated experiments against checked-in golden files, and asserts the
// whole document is byte-identical when the worker pool width changes.
// Regenerate with: go test ./cmd/webtune/ -run TestGoldenReports -update
func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden test")
	}
	cases := []struct {
		name       string
		args       []string
		altWorkers int // second worker count checked for byte-equality
	}{
		{"table4", []string{"-scale", "tiny", "-iters", "8", "-replicates", "2", "table4"}, 4},
		{"sweep", []string{"-scale", "tiny", "-iters", "3", "-replicates", "2",
			"-sweep", "browsers=60,80", "sweep"}, 4},
		// The acceptance bar for the tuned sweep is byte-equality between
		// -workers 1 and -workers 8 specifically. 200 iterations buys 20
		// tuning steps, enough for the tuner to beat the default at the
		// browsers=200 point, so the golden pins a non-zero paired gain
		// (the browsers=80 point stays at zero gain, pinning that shape
		// too).
		{"tunedsweep", []string{"-scale", "tiny", "-iters", "200", "-replicates", "3",
			"-sweep", "browsers=80,200", "-tuned", "sweep"}, 8},
		{"figure4", []string{"-scale", "tiny", "-iters", "4", "-replicates", "2", "figure4"}, 4},
		{"figure7a", []string{"-scale", "tiny", "-replicates", "2", "figure7a"}, 4},
		// Figure 5 runs through the batched lookahead driver: workers
		// change how many per-evaluation labs evaluate candidates
		// concurrently, never what gets committed. The no-shift variant pins the path
		// where speculation is never discarded.
		{"figure5", []string{"-scale", "tiny", "-iters", "16", "figure5"}, 4},
		{"figure5-noshift", []string{"-scale", "tiny", "-iters", "16", "-shift", "0", "figure5"}, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := captureRun(t, 1, tc.args...)
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (regenerate with -update if the change is intended):\n--- got\n%s\n--- want\n%s",
					golden, got, want)
			}
			if again := captureRun(t, tc.altWorkers, tc.args...); again != got {
				t.Errorf("output differs between -workers 1 and -workers %d:\n--- workers=1\n%s\n--- workers=%d\n%s",
					tc.altWorkers, got, tc.altWorkers, again)
			}
		})
	}
}
