// Package latency is the schema of the per-opcode latency table — the
// speedup regression oracle of DESIGN.md §16. The static side (the ulat
// analyzer in internal/analysis, committed as latency.json and, through
// Markdown, as LATENCY.md) derives per-class microcycle bounds from the
// execute microroutines themselves; the dynamic side (internal/experiments)
// single-steps each opcode on a real Machine and must land inside those
// bounds. The package deliberately imports nothing from the model: rows
// and classes are carried as their Go constant names ("RowSimple",
// "ClassCompute"), which is the same name-space the analyzers prove
// things in and the one that survives into fixtures.
package latency

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Bound is one per-class microcycle interval: the fewest and the most
// execute-phase cycles any path through the microroutine can count in
// that class, loop bodies excluded (they are carried as LoopTerms).
type Bound struct {
	Min uint64 `json:"min"`
	Max uint64 `json:"max"`
}

// LoopTerm is one data-dependent loop of a microroutine: the per-class
// cycles one iteration counts, annotated with the loop variable that
// scales it (the string length, the digit count, the register mask).
// A loop term relaxes the Max bound of its classes — the static side
// cannot know the iteration count — but never the Min: a loop may run
// zero times.
type LoopTerm struct {
	Var     string            `json:"var"`
	Classes map[string]uint64 `json:"classes"`
}

// Opcode is one derived row of the table.
type Opcode struct {
	Name  string `json:"name"`
	Group string `json:"group,omitempty"` // opTable group constant name
	Row   string `json:"row,omitempty"`   // its Table 8 execute row

	// Classes bounds the execute-phase cycles per ucode.Class constant
	// name. A class absent from the map is bounded [0,0].
	Classes map[string]Bound `json:"classes"`

	// Sum is the perturbation fingerprint: every counted contribution of
	// the microroutine added up once per class — all branches, all loop
	// bodies (one iteration each), both arms of every conditional. Any
	// one-cycle change anywhere in the routine moves it even when the
	// min/max envelope happens to absorb the change.
	Sum map[string]uint64 `json:"sum,omitempty"`

	Loops []LoopTerm `json:"loops,omitempty"`

	// Words is the sorted set of microword names the routine can count
	// on the exec channel (service rows pruned): the dynamic harness
	// attributes measured cycles to the opcode by this set.
	Words []string `json:"words"`

	// Scaled marks a routine whose tick counts fold an FPA-configuration
	// cost (fpCost): the bounds hold for the default FPA-present config.
	Scaled bool `json:"scaled,omitempty"`
}

// Mode is one addressing-mode row: the specifier-phase cycles one
// operand of that mode costs (read access, longword operand), same
// bound semantics as Opcode.
type Mode struct {
	Mode    string           `json:"mode"`
	Classes map[string]Bound `json:"classes"`
	Words   []string         `json:"words"`
}

// Table is the whole committed latency.json.
type Table struct {
	Version int      `json:"version"`
	Note    string   `json:"note"`
	Opcodes []Opcode `json:"opcodes"`
	Modes   []Mode   `json:"modes,omitempty"`
}

// Version is the current schema version.
const Version = 1

// Marshal renders the table as the canonical committed byte form:
// opcodes sorted by name, word lists sorted, two-space indent, trailing
// newline. Byte-identical across runs for identical content (maps
// marshal key-sorted), so CI can diff regenerated against committed.
func (t *Table) Marshal() ([]byte, error) {
	sort.Slice(t.Opcodes, func(i, j int) bool { return t.Opcodes[i].Name < t.Opcodes[j].Name })
	for i := range t.Opcodes {
		sort.Strings(t.Opcodes[i].Words)
		sortLoops(t.Opcodes[i].Loops)
	}
	for i := range t.Modes {
		sort.Strings(t.Modes[i].Words)
	}
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// sortLoops orders loop terms by variable then by their class
// fingerprint so emission is deterministic whatever order derivation
// discovered them in.
func sortLoops(loops []LoopTerm) {
	key := func(l LoopTerm) string {
		names := make([]string, 0, len(l.Classes))
		for c := range l.Classes {
			names = append(names, c)
		}
		sort.Strings(names)
		s := l.Var
		for _, c := range names {
			s += fmt.Sprintf("|%s=%d", c, l.Classes[c])
		}
		return s
	}
	sort.Slice(loops, func(i, j int) bool { return key(loops[i]) < key(loops[j]) })
}

// Load reads a committed table.
func Load(path string) (*Table, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("latency table: %w", err)
	}
	var t Table
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("latency table %s: %w", path, err)
	}
	if t.Version != Version {
		return nil, fmt.Errorf("latency table %s: schema version %d, want %d", path, t.Version, Version)
	}
	return &t, nil
}

// LoopTouched reports whether class appears in any loop term of the
// opcode — such a class has no usable upper bound.
func (o *Opcode) LoopTouched(class string) bool {
	for _, l := range o.Loops {
		if l.Classes[class] > 0 {
			return true
		}
	}
	return false
}

// Check is the declared tolerance policy: measured execute-phase cycles
// (per class constant name, attributed over o.Words) must be ≥ Min for
// every class, and ≤ Max unless the class is scaled by a loop term.
// Exact integer containment — there is no epsilon; the bounds themselves
// carry all the declared slack. The returned problems are human-readable
// and empty on agreement.
func (o *Opcode) Check(measured map[string]uint64) []string {
	var probs []string
	classes := make(map[string]bool, len(o.Classes)+len(measured))
	for c := range o.Classes {
		classes[c] = true
	}
	for c := range measured {
		classes[c] = true
	}
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		b := o.Classes[c] // zero Bound when the class never appears statically
		got := measured[c]
		if got < b.Min {
			probs = append(probs, fmt.Sprintf("%s: measured %d %s cycles, static minimum is %d", o.Name, got, c, b.Min))
		}
		if got > b.Max && !o.LoopTouched(c) {
			probs = append(probs, fmt.Sprintf("%s: measured %d %s cycles, static maximum is %d and no loop term scales the class", o.Name, got, c, b.Max))
		}
	}
	return probs
}

// File is the committed table's file name at the module root.
const File = "latency.json"

// Doc is the committed human-readable rendering's file name.
const Doc = "LATENCY.md"

// classOrder fixes the column order of the rendering: the execute-phase
// classes in rough pipeline order, then anything the derivation ever
// produces beyond them, alphabetically.
var classOrder = []string{"ClassCompute", "ClassRead", "ClassWrite", "ClassDispatch"}

func classColumns(tab *Table) []string {
	seen := make(map[string]bool)
	for _, c := range classOrder {
		seen[c] = true
	}
	var extra []string
	note := func(c string) {
		if !seen[c] {
			seen[c] = true
			extra = append(extra, c)
		}
	}
	for _, op := range tab.Opcodes {
		for c := range op.Classes {
			note(c)
		}
		for _, l := range op.Loops {
			for c := range l.Classes {
				note(c)
			}
		}
	}
	for _, mo := range tab.Modes {
		for c := range mo.Classes {
			note(c)
		}
	}
	sort.Strings(extra)
	return append(append([]string{}, classOrder...), extra...)
}

func bound(b Bound) string {
	if b.Min == b.Max {
		return fmt.Sprintf("%d", b.Min)
	}
	return fmt.Sprintf("%d–%d", b.Min, b.Max)
}

// Markdown renders the table as the committed LATENCY.md: one row per
// opcode with its per-class bounds and loop terms, then one row per
// addressing mode. Deterministic for identical content, like Marshal.
func (t *Table) Markdown() []byte {
	var sb strings.Builder
	cols := classColumns(t)
	short := func(c string) string { return strings.TrimPrefix(c, "Class") }

	sb.WriteString("# Per-opcode latency table\n\n")
	sb.WriteString("Static execute-phase microcycle bounds per `ucode.Class`, derived from the\n")
	sb.WriteString("microroutines by the ulat analyzer (DESIGN.md §16). `min–max` spans the\n")
	sb.WriteString("paths through the routine; a loop term `+k×var` relaxes the upper bound of\n")
	sb.WriteString("its classes by k cycles per iteration of the data-dependent loop scaled by\n")
	sb.WriteString("`var`. Service rows (Mem Mgmt, Int+Except, Abort) and IB-stall/marker\n")
	sb.WriteString("cycles are excluded on both sides of the oracle. ⚖ marks FPA-configuration\n")
	sb.WriteString("scaled costs (bounds hold for the default FPA-present machine).\n")
	sb.WriteString("\nRegenerate with `make latency`; `TestLatencyTruth` fails on drift; the dynamic\n")
	sb.WriteString("cross-check is `go test -run TestLatencyOracle ./internal/experiments`.\n\n")

	sb.WriteString("## Opcodes\n\n")
	sb.WriteString("| Opcode | Row |")
	for _, c := range cols {
		sb.WriteString(" " + short(c) + " |")
	}
	sb.WriteString(" Loop terms |\n")
	sb.WriteString("|---|---|")
	for range cols {
		sb.WriteString("---|")
	}
	sb.WriteString("---|\n")
	for _, op := range t.Opcodes {
		name := op.Name
		if op.Scaled {
			name += " ⚖"
		}
		row := strings.TrimPrefix(op.Row, "Row")
		sb.WriteString(fmt.Sprintf("| %s | %s |", name, row))
		for _, c := range cols {
			if b, ok := op.Classes[c]; ok {
				sb.WriteString(" " + bound(b) + " |")
			} else {
				sb.WriteString(" · |")
			}
		}
		var terms []string
		for _, l := range op.Loops {
			cs := make([]string, 0, len(l.Classes))
			for c := range l.Classes {
				cs = append(cs, c)
			}
			sort.Strings(cs)
			for _, c := range cs {
				terms = append(terms, fmt.Sprintf("+%d×%s %s", l.Classes[c], l.Var, short(c)))
			}
		}
		if len(terms) == 0 {
			sb.WriteString(" |\n")
		} else {
			sb.WriteString(" " + strings.Join(terms, ", ") + " |\n")
		}
	}

	if len(t.Modes) > 0 {
		sb.WriteString("\n## Addressing modes (read access, longword operand)\n\n")
		sb.WriteString("| Mode |")
		for _, c := range cols {
			sb.WriteString(" " + short(c) + " |")
		}
		sb.WriteString("\n|---|")
		for range cols {
			sb.WriteString("---|")
		}
		sb.WriteString("\n")
		for _, mo := range t.Modes {
			sb.WriteString(fmt.Sprintf("| %s |", strings.TrimPrefix(mo.Mode, "Mode")))
			for _, c := range cols {
				if b, ok := mo.Classes[c]; ok {
					sb.WriteString(" " + bound(b) + " |")
				} else {
					sb.WriteString(" · |")
				}
			}
			sb.WriteString("\n")
		}
	}
	return []byte(sb.String())
}
