// Command vaxbench measures the cost of the vaxlint analyzer suite: one
// module load, one parallel whole-suite run (the shape `make check` pays
// for), then each analyzer timed alone over the whole tree with its
// findings count. The result is printed and, with -out, appended to the
// BENCH_lint.json ledger (see internal/bench) — the suite is 18 analyzers
// deep and its own cost needs a trajectory.
//
// Simulator speed is measured by the repo benchmark (perfbench), which
// takes repeated runs and tags them with the host; the paper's tables
// are regenerated by `go test -bench .`.
//
// Usage:
//
//	vaxbench                        # print the table, don't touch the ledger
//	vaxbench -out BENCH_lint.json   # append an entry to the ledger
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"vax780/internal/analysis"
	"vax780/internal/bench"
	"vax780/internal/cli"
)

const name = "vaxbench"

// main times the suite over the whole module: one shared load (reported
// separately — it is amortized across the suite in the real `make
// check`), one whole-suite run the way `make check` runs it
// (analysis.Run fans the analyzers out in parallel, so on a multi-core
// host the suite's wall time tracks the slowest analyzer rather than
// the sum), then each analyzer run alone so its wall time and findings
// count get their own trajectory in the ledger.
func main() {
	out := flag.String("out", "", "ledger file to append to (empty: print only)")
	flag.Parse()

	loadStart := time.Now()
	pkgs, err := analysis.LoadModule(".", []string{"./..."})
	cli.Check(name, err)
	loadSec := time.Since(loadStart).Seconds()

	suiteStart := time.Now()
	_, err = analysis.Run(analysis.All(), pkgs)
	cli.Check(name, err)
	suiteSec := time.Since(suiteStart).Seconds()

	entry := bench.LintEntry{
		Date:         time.Now().UTC().Format("2006-01-02"),
		GoVersion:    runtime.Version(),
		Analyzers:    len(analysis.All()),
		LoadSeconds:  loadSec,
		SuiteSeconds: suiteSec,
	}
	fmt.Printf("%-14s %10s %10s\n", "analyzer", "seconds", "findings")
	fmt.Printf("%-14s %10.3f %10s\n", "(load)", loadSec, "-")
	fmt.Printf("%-14s %10.3f %10s\n", "(suite ∥)", suiteSec, "-")
	for _, a := range analysis.All() {
		start := time.Now()
		diags, err := analysis.Run([]*analysis.Analyzer{a}, pkgs)
		cli.Check(name, err)
		sec := time.Since(start).Seconds()
		n := 0
		for _, d := range diags {
			if d.Analyzer == a.Name {
				n++
			}
		}
		entry.Costs = append(entry.Costs, bench.AnalyzerCost{Name: a.Name, Seconds: sec, Findings: n})
		fmt.Printf("%-14s %10.3f %10d\n", a.Name, sec, n)
	}

	if *out == "" {
		return
	}
	l, err := bench.LoadLint(*out)
	cli.Check(name, err)
	l.Append(entry)
	cli.Check(name, l.Write(*out))
	fmt.Printf("appended entry %d to %s\n", len(l.Entries), *out)
}
