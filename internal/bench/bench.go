// Package bench is the ledger behind BENCH_lint.json: an append-only
// record of what the vaxlint analyzer suite costs, one entry per `make
// lint-bench` run, so a regression in the suite's own cost shows up as a
// diff in a committed file, not as a vague feeling that CI got slower.
// Simulator speed is measured by the repo benchmark (perfbench), not
// ledgered here.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// AnalyzerCost is the measured cost of one vaxlint analyzer over the
// whole module: wall time for its passes (the shared load is amortized
// across the suite and reported separately) and how many findings it
// produced — a findings count that quietly drops to zero is as much a
// regression signal as a runtime that doubles.
type AnalyzerCost struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Findings int     `json:"findings"`
}

// LintEntry is one `make lint-bench` run: the one-time module load cost,
// the wall time of the whole suite run the way `make check` runs it
// (analysis.Run fans the analyzers out in parallel, so on a multi-core
// host this lands near the slowest analyzer, not the sum; on one core
// it records the serial cost), plus the per-analyzer
// trajectory of a suite now big enough (18 analyzers) that its own cost
// needs a ledger.
type LintEntry struct {
	Date         string         `json:"date"` // YYYY-MM-DD
	GoVersion    string         `json:"go_version"`
	Analyzers    int            `json:"analyzers"`
	LoadSeconds  float64        `json:"load_seconds"`
	SuiteSeconds float64        `json:"suite_seconds,omitempty"`
	Costs        []AnalyzerCost `json:"costs"`
}

// LintLedger is the whole committed BENCH_lint.json file.
type LintLedger struct {
	Entries []LintEntry `json:"entries"`
}

// LoadLint reads the analyzer-cost ledger at path; a missing file is an
// empty ledger, any other failure (including malformed JSON) is an error
// so a corrupted ledger is never silently truncated to one entry.
func LoadLint(path string) (*LintLedger, error) {
	var l LintLedger
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: read ledger: %w", err)
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("bench: parse ledger %s: %w", path, err)
	}
	return &l, nil
}

// Append adds one suite run to the ledger.
func (l *LintLedger) Append(e LintEntry) { l.Entries = append(l.Entries, e) }

// Write rewrites the ledger at path, indented and newline-terminated so
// the committed file diffs line by line.
func (l *LintLedger) Write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode ledger: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: write ledger: %w", err)
	}
	return nil
}
