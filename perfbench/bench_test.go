package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// testScale is a small batch for tests; passivity and exact counts must
// hold at any scale.
var testScale = scale{budget: 300_000, chunk: 50_000, fleetEvery: 100_000, instances: 5, setupSamples: 2}

// TestTracedBatchIsPassive checks, for each workload, that a traced
// batch's product histogram is bit-identical to an untraced batch's at
// the same seed and chunk schedule, and that every count the taps take
// repeats exactly across two traced batches. For fleet, the scripted
// death must land and its instance be rescued.
func TestTracedBatchIsPassive(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			b := &bench{sc: testScale, seed: 3, dir: dir, gens: filepath.Join(dir, "generations")}
			plain := b.runBatch(w)
			tr := newTracer("test")
			b.tr = tr
			tr.capture = true
			first := b.runBatch(w)
			c1 := tr.batch.counts
			tr.capture = false
			second := b.runBatch(w)
			c2 := tr.batch.counts
			for _, o := range []*batch{plain, first, second} {
				if o.failed != 0 || o.ops == 0 {
					t.Fatalf("batch failed %d of %d checks: %v", o.failed, o.ops, o.problems)
				}
			}
			if first.hash != plain.hash || second.hash != plain.hash {
				t.Errorf("traced histograms %x, %x differ from untraced %x", first.hash, second.hash, plain.hash)
			}
			if c1 != c2 {
				t.Errorf("layer counts differ across traced batches:\n%+v\n%+v", c1, c2)
			}
			if c1.Instructions == 0 || c1.ProbeCalls == 0 || c1.MemReads == 0 || c1.CacheReads == 0 {
				t.Errorf("taps counted nothing: %+v", c1)
			}
			if f1, f2 := first.farm, second.farm; f1 != nil &&
				(f1.Rescued != f2.Rescued || f1.Lost != f2.Lost || f1.Cycles != f2.Cycles || f1.Rescued == 0 || f1.Lost != 1) {
				t.Errorf("farm counts differ, or not one death and a rescue: %+v vs %+v", f1, f2)
			}
		})
	}
}

// TestRunReportsDeclaredMetrics runs each workload untraced and traced
// and checks that the result line carries exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestRunReportsDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.Workloads {
		if _, ok := findWorkload(d.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", d.Name)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := run(w, runConfig{seed: 5, seconds: 1, traced: traced, out: t.TempDir(), sc: testScale}, io.Discard, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%t: %d of %d failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %q", w.name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}
