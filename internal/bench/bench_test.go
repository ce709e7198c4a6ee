package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_lint.json")

	// A missing ledger is empty, not an error.
	l, err := LoadLint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Entries) != 0 {
		t.Fatalf("fresh ledger has %d entries", len(l.Entries))
	}

	l.Append(LintEntry{
		Date:         "2026-08-08",
		GoVersion:    "go1.0-test",
		Analyzers:    1,
		LoadSeconds:  1.5,
		SuiteSeconds: 0.75,
		Costs:        []AnalyzerCost{{Name: "hotpath", Seconds: 0.5, Findings: 3}},
	})
	if err := l.Write(path); err != nil {
		t.Fatal(err)
	}

	// Append-on-reload: the second run lands after the first.
	l2, err := LoadLint(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(LintEntry{Date: "2026-08-09", GoVersion: "go1.0-test", Analyzers: 1})
	if err := l2.Write(path); err != nil {
		t.Fatal(err)
	}
	l3, err := LoadLint(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l3.Entries) != 2 || l3.Entries[0].Date != "2026-08-08" || l3.Entries[1].Date != "2026-08-09" {
		t.Fatalf("ledger after two writes: %+v", l3.Entries)
	}
	if got := l3.Entries[0].Costs[0]; got.Name != "hotpath" || got.Findings != 3 || got.Seconds != 0.5 {
		t.Fatalf("analyzer row did not round-trip: %+v", got)
	}

	// A corrupted ledger is an error, never silently replaced.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLint(path); err == nil {
		t.Fatal("LoadLint accepted a truncated ledger")
	}
}
