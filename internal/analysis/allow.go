package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Escape hatch. A finding can be suppressed in source with
//
//	//vaxlint:allow <analyzer>[,<analyzer>...] -- <justification>
//
// either trailing on the offending line or standing alone on the line
// directly above it. The justification is mandatory: an allow without
// one is itself a finding (the build stays red), so every suppression in
// the tree carries its reason next to the code it excuses. Unknown
// analyzer names are findings too — a typo must not silently allow
// nothing.

const allowPrefix = "//vaxlint:allow"

// allowNote is one parsed //vaxlint:allow comment.
type allowNote struct {
	analyzers []string
	reason    string
	pos       token.Pos
	raw       string
}

// allowKey locates a note by file and line.
type allowKey struct {
	file string
	line int
}

// allowIndex maps every source line an allow comment covers to its
// note. Built once per Run over every package of the load.
type allowIndex map[allowKey]*allowNote

// covers reports whether the note names the analyzer.
func (n *allowNote) covers(analyzer string) bool {
	for _, a := range n.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// buildAllowIndex scans the comments of pkgs for allow notes. A note
// covers its own line; a note standing alone on its line also covers the
// line below. A trailing note covers only the line it trails, so it
// cannot excuse the next declaration or statement by accident.
func buildAllowIndex(pkgs []*Package) allowIndex {
	idx := make(allowIndex)
	var file *ast.File
	var code map[int]bool
	eachAllow(pkgs, func(pkg *Package, f *ast.File, note *allowNote) {
		if f != file {
			file, code = f, codeLines(pkg.Fset, f)
		}
		p := pkg.Fset.Position(note.pos)
		idx[allowKey{p.Filename, p.Line}] = note
		if !code[p.Line] {
			idx[allowKey{p.Filename, p.Line + 1}] = note
		}
	})
	return idx
}

// eachAllow calls fn with every allow note of pkgs, file by file.
func eachAllow(pkgs []*Package, fn func(pkg *Package, f *ast.File, note *allowNote)) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, allowPrefix) {
						fn(pkg, f, parseAllow(c.Text, c.Pos()))
					}
				}
			}
		}
	}
}

// codeLines returns the lines of f that hold the first or last token of
// some syntax node: every line with code on it does, since its first
// token begins a node or ends one. A line comment on such a line trails
// code; on any other line it stands alone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	tf := fset.File(f.Pos())
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup, *ast.Comment:
			return false
		}
		if n.Pos().IsValid() && n.End().IsValid() {
			lines[tf.Line(n.Pos())] = true
			lines[tf.Line(n.End()-1)] = true
		}
		return true
	})
	return lines
}

// parseAllow splits "//vaxlint:allow a,b -- reason" into its parts. A
// missing "--" or empty reason leaves reason empty, which validation
// reports.
func parseAllow(text string, pos token.Pos) *allowNote {
	note := &allowNote{pos: pos, raw: text}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	names := rest
	if i := strings.Index(rest, "--"); i >= 0 {
		names = rest[:i]
		note.reason = strings.TrimSpace(rest[i+2:])
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			note.analyzers = append(note.analyzers, n)
		}
	}
	return note
}

// validateAllows reports malformed allow notes: no justification, no
// analyzer names, or names outside the known set. Reported under the
// pseudo-analyzer "allow" so `make check` fails on an annotation that
// excuses nothing or excuses it without saying why.
func validateAllows(idx allowIndex, known map[string]bool, fset *token.FileSet, diags *[]Diagnostic) {
	seen := make(map[*allowNote]bool)
	for _, note := range idx {
		if seen[note] {
			continue
		}
		seen[note] = true
		report := func(format string, args ...any) {
			*diags = append(*diags, Diagnostic{
				Pos:      fset.Position(note.pos),
				Analyzer: "allow",
				Message:  fmt.Sprintf(format, args...),
			})
		}
		if len(note.analyzers) == 0 {
			report("vaxlint:allow names no analyzer: %q", note.raw)
		}
		for _, a := range note.analyzers {
			if !known[a] {
				report("vaxlint:allow names unknown analyzer %q", a)
			}
		}
		if note.reason == "" {
			report("vaxlint:allow lacks a justification; write //vaxlint:allow <analyzer> -- <reason>")
		}
	}
}

// Allowed reports whether a finding of this pass's analyzer at pos is
// suppressed by a justified allow note. Analyzers that aggregate
// findings across functions (determinism) call it at collection time so
// an excused site never enters a fact; Reportf calls it for everyone
// else. Notes without a justification never suppress — they are
// themselves findings.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.allowedAs(p.Analyzer.Name, pos)
}

// allowedAs is Allowed for an arbitrary analyzer name. The hot-set
// builder (hotset.go) uses it to prune cold functions for both hotpath
// and hotbox through one //vaxlint:allow hotpath note on the declaration.
func (p *Pass) allowedAs(name string, pos token.Pos) bool {
	if p.allows == nil {
		return false
	}
	position := p.Fset.Position(pos)
	note, ok := p.allows[allowKey{position.Filename, position.Line}]
	if !ok {
		return false
	}
	return note.covers(name) && note.reason != ""
}

// AllowEntry is one //vaxlint:allow note of the load, as listed by
// `vaxlint -allows`: the audit trail of every suppression in one place.
type AllowEntry struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// CollectAllows scans pkgs for allow notes and returns them sorted by
// file, then line — a deterministic listing independent of map order.
func CollectAllows(pkgs []*Package) []AllowEntry {
	var out []AllowEntry
	eachAllow(pkgs, func(pkg *Package, _ *ast.File, note *allowNote) {
		out = append(out, AllowEntry{Pos: pkg.Fset.Position(note.pos), Analyzers: note.analyzers, Reason: note.reason})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
