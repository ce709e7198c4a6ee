package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vax780/internal/latency"
)

// updateLatency rewrites the committed latency table instead of checking
// it: `go test -run '^TestLatencyTruth$' ./internal/analysis -args -update`
// (make latency).
var updateLatency = flag.Bool("update", false, "rewrite latency.json and LATENCY.md from the microroutines")

// TestLatencyTruth re-derives the static latency table from the real
// module and demands the committed latency.json and its LATENCY.md
// rendering be byte-identical — the static half of the oracle's drift
// gate. A one-cycle change to any microroutine moves its bounds, fails
// this test, and forces the regenerated table into review; an opcode
// whose bounds stop being derivable is a finding and fails the same way.
func TestLatencyTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and re-derives the whole module")
	}
	root := moduleRootDir(t)
	pkgs, err := LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	tab, diags, err := DeriveLatencyTable(pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("derivation finding (underivable bounds make an invalid oracle): %s", d)
	}
	if len(tab.Opcodes) == 0 {
		t.Fatal("derivation produced an empty opcode table; the registration scan is broken")
	}

	js, err := tab.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name string
		want []byte
	}{{latency.File, js}, {latency.Doc, tab.Markdown()}} {
		path := filepath.Join(root, f.name)
		if *updateLatency {
			if err := os.WriteFile(path, f.want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("committed table: %v", err)
		}
		if string(got) != string(f.want) {
			t.Errorf("committed %s drifted from the microroutines; regenerate with `make latency` and review the diff", f.name)
		}
	}
}
