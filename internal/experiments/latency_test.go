package experiments

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/latency"
	"vax780/internal/vax"
)

// loadLatencyTable reads the committed latency.json at the module root.
func loadLatencyTable(t *testing.T) *latency.Table {
	t.Helper()
	tab, err := latency.Load(filepath.Join("..", "..", latency.File))
	if err != nil {
		t.Fatalf("load committed table: %v", err)
	}
	return tab
}

// TestLatencyOracle is the dynamic half of the oracle: the committed
// table covers exactly the registered opcodes, and every opcode's and
// every addressing mode's measured execute-phase cycles land inside the
// statically derived bounds.
func TestLatencyOracle(t *testing.T) {
	tab := loadLatencyTable(t)

	inTable := make(map[string]bool, len(tab.Opcodes))
	for _, op := range tab.Opcodes {
		inTable[op.Name] = true
	}
	registered := make(map[string]bool)
	for _, code := range cpu.RegisteredOpcodes() {
		info := vax.Lookup(code)
		if info == nil {
			t.Fatalf("registered opcode %#02x has no vax.OpInfo row", uint8(code))
		}
		registered[info.Name] = true
		if !inTable[info.Name] {
			t.Errorf("registered opcode %s missing from committed latency.json; regenerate with `make latency`", info.Name)
		}
	}
	for name := range inTable {
		if !registered[name] {
			t.Errorf("latency.json row %s has no registered microroutine; regenerate with `make latency`", name)
		}
	}

	probs, err := CheckLatencyTable(tab)
	if err != nil {
		t.Fatalf("cross-check: %v", err)
	}
	for _, p := range probs {
		t.Errorf("static/dynamic disagreement: %s", p)
	}
}

// TestLatencySweepDeterministic runs the full sweep twice concurrently
// (the machines share only the sealed control store) and demands
// byte-identical serialized results: the measurement owes the same
// determinism contract as the simulator it measures.
func TestLatencySweepDeterministic(t *testing.T) {
	tab := loadLatencyTable(t)
	sweep := func() []byte {
		out := make(map[string]map[string]uint64, len(tab.Opcodes))
		for i := range tab.Opcodes {
			op := &tab.Opcodes[i]
			m, err := MeasureOpcodeLatency(op, nil)
			if err != nil {
				t.Errorf("%s: %v", op.Name, err)
				return nil
			}
			out[op.Name] = m
		}
		b, err := json.Marshal(out) // map keys marshal sorted
		if err != nil {
			t.Errorf("marshal: %v", err)
		}
		return b
	}
	var a, b []byte
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = sweep() }()
	go func() { defer wg.Done(); b = sweep() }()
	wg.Wait()
	if a == nil || b == nil {
		t.Fatal("sweep failed")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two identical sweeps measured different cycle attributions")
	}
}

// TestLatencyMisattributionCaught is the corruption test: shifting one
// microword's measured counts onto a different-class word of the same
// routine must violate the bounds. If this passes trivially the oracle
// has no teeth.
func TestLatencyMisattributionCaught(t *testing.T) {
	tab := loadLatencyTable(t)
	var chmk *latency.Opcode
	for i := range tab.Opcodes {
		if tab.Opcodes[i].Name == "CHMK" {
			chmk = &tab.Opcodes[i]
		}
	}
	if chmk == nil {
		t.Fatal("CHMK missing from committed table")
	}
	addrs := wordAddrs()
	work, okW := addrs["exec.sys.chm.work"]
	push, okP := addrs["exec.sys.chm.push"]
	if !okW || !okP {
		names := make([]string, 0, len(addrs))
		for n := range addrs {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Fatalf("chm microwords renamed; control store has %v", names)
	}
	measured, err := MeasureOpcodeLatency(chmk, map[uint16]uint16{work: push})
	if err != nil {
		t.Fatalf("measure: %v", err)
	}
	if probs := chmk.Check(measured); len(probs) == 0 {
		t.Errorf("compute cycles misattributed to a write-class word went undetected; measured %v", measured)
	}
}
