package workload

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/fault"
)

// updateGolden rewrites the committed digests instead of checking them
// (`make golden`).
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current code")

const (
	goldenFile = "testdata/golden.sha256"
	// goldenCycles is each profile's budget: the digest of a profile is
	// the sha256sum of `vaxsim -workload <name> -cycles 1000000`'s .upc.
	goldenCycles = 1_000_000
	// goldenCompositeCycles is the per-profile budget of the composite
	// digest, a second fixed point through RunComposite's summation.
	goldenCompositeCycles = 500_000
	// goldenInjectProfile runs once per goldenInjectSpecs entry at
	// goldenCycles with the fault plane attached: the digest is the
	// sha256sum of `vaxsim -workload <name> -cycles 1000000 -inject <spec>`'s
	// .upc. These pin the sampling contract of every injection point — a
	// change that skips or adds a sampled reference moves its line even
	// when every clean digest stays put.
	goldenInjectProfile = "rte-commercial"
)

// goldenInjectSpecs are the injected runs: the memory RDS plane alone,
// every point of the memory hierarchy together, and the cache and TB
// planes without the memory plane.
var goldenInjectSpecs = []string{
	"seed=7,mem=0.0001",
	"seed=7,mem=1/5000,cache=1/20000,tb=1/20000,sbi=1/20000",
	"seed=3,cache=0.0001,tb=0.0001",
}

// TestGoldenDigests pins the simulator's data product across commits:
// the SHA-256 of each profile's histogram file and of the composite's
// summed histogram, regenerated here and compared with the committed
// digests. Every other determinism check compares two runs of the same
// build; this one is the only check that a change to the simulator left
// the measured histograms bit-identical to the previous commit's.
func TestGoldenDigests(t *testing.T) {
	var got []string
	for _, p := range All() {
		res, err := RunSupervised(context.Background(), Spec{Profile: p, Cycles: goldenCycles, Machine: cpu.Config{}}, Supervisor{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		got = append(got, goldenLine(t, p.Name+".upc", histBytes(t, res.Hist)))
	}
	comp, err := RunComposite(context.Background(), goldenCompositeCycles, cpu.Config{}, Supervisor{}, false)
	if err != nil {
		t.Fatalf("composite: %v", err)
	}
	got = append(got, goldenLine(t, "composite.upc", histBytes(t, comp.Hist)))
	p, ok := ByName(goldenInjectProfile)
	if !ok {
		t.Fatalf("no profile %q", goldenInjectProfile)
	}
	for _, spec := range goldenInjectSpecs {
		cfg, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSupervised(context.Background(), Spec{Profile: p, Cycles: goldenCycles, Machine: cpu.Config{}, Fault: &cfg}, Supervisor{})
		if err != nil {
			t.Fatalf("%s -inject %s: %v", p.Name, spec, err)
		}
		got = append(got, goldenLine(t, fmt.Sprintf("%s[%s].upc", p.Name, spec), histBytes(t, res.Hist)))
	}

	if *updateGolden {
		header := fmt.Sprintf("# SHA-256 of Histogram.Save bytes: each profile at %d cycles (vaxsim -workload <name> -cycles %d),\n"+
			"# composite = RunComposite at %d cycles per profile, <name>[<spec>] = the same run as\n"+
			"# vaxsim -workload <name> -cycles %d -inject <spec>. Rewrite with `make golden`.\n",
			goldenCycles, goldenCycles, goldenCompositeCycles, goldenCycles)
		if err := os.WriteFile(goldenFile, []byte(header+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Fatalf("%s holds %d digests, the run produced %d; run `make golden` after adding a profile", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("histogram digest changed:\n  committed %s\n  now       %s", want[i], got[i])
		}
	}
	if t.Failed() {
		t.Log("the measured histograms are no longer bit-identical to the committed ones. " +
			"Rewrite the digests (`make golden`) only for a deliberate behaviour change that CHANGES.md records and explains.")
	}
}

func goldenLine(t *testing.T, name string, b []byte) string {
	t.Helper()
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]) + "  " + name
}

// readGolden returns the digest lines of the committed file, comments
// skipped.
func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with `make golden`)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
