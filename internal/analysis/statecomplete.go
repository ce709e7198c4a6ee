package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// StateComplete is the checkpoint-completeness proof: every field of a
// struct that has ExportState/ImportState methods must be referenced in
// both bodies, or carry a justified exemption on its declaration line:
//
//	probe Probe //vaxlint:allow statecomplete -- attachment; re-attached on resume
//
// so each field's checkpoint decision is recorded once, where the field
// is declared, and TestTreeClean fails tier-1 on a field without one. A
// field counts as referenced when the method body selects it through the
// receiver (m.field, including as the base of a deeper selection like
// m.hw.Unaligned). The analyzer does not follow helper calls, so state
// travels by direct reference: a nested stateful value (the machine's
// ibox) gets its own ExportState/ImportState pair, checked the same way,
// and a field that travels whole (m.pendMC, m.hw) is referenced whole.
var StateComplete = &Analyzer{
	Name: "statecomplete",
	Doc:  "every field of an ExportState/ImportState struct is captured or exempted",
	Run:  runStateComplete,
}

func runStateComplete(pass *Pass) error {
	// Collect the ExportState/ImportState method bodies per named type.
	type bodies struct {
		export, imp *ast.FuncDecl
	}
	methods := make(map[*types.TypeName]*bodies)
	for _, fd := range PackageFuncs(pass.Pkg) {
		name := fd.Obj.Name()
		if name != "ExportState" && name != "ImportState" {
			continue
		}
		sig := fd.Obj.Type().(*types.Signature)
		if sig.Recv() == nil {
			continue
		}
		named := namedOf(sig.Recv().Type())
		if named == nil {
			continue
		}
		b := methods[named.Obj()]
		if b == nil {
			b = &bodies{}
			methods[named.Obj()] = b
		}
		if name == "ExportState" {
			b.export = fd.Decl
		} else {
			b.imp = fd.Decl
		}
	}

	for tn, b := range methods {
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		inExport := receiverFieldRefs(pass, b.export)
		inImport := receiverFieldRefs(pass, b.imp)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			var missing []string
			if b.export != nil && !inExport[f.Name()] {
				missing = append(missing, "ExportState")
			}
			if b.imp != nil && !inImport[f.Name()] {
				missing = append(missing, "ImportState")
			}
			if len(missing) == 0 {
				continue
			}
			pass.Reportf(f.Pos(),
				"field %s.%s is not referenced in %s — the snapshot silently drops it; capture it or exempt it with //vaxlint:allow statecomplete -- <why it need not travel>",
				tn.Name(), f.Name(), strings.Join(missing, " or "))
		}
	}
	return nil
}

// receiverFieldRefs returns the set of receiver fields a method body
// selects (directly or as the base of a longer selection). Nil decl
// yields an empty set.
func receiverFieldRefs(pass *Pass, decl *ast.FuncDecl) map[string]bool {
	refs := make(map[string]bool)
	if decl == nil || decl.Body == nil || decl.Recv == nil || len(decl.Recv.List) == 0 {
		return refs
	}
	var recvObj types.Object
	if names := decl.Recv.List[0].Names; len(names) > 0 {
		recvObj = pass.Pkg.Info.Defs[names[0]]
	}
	if recvObj == nil {
		return refs
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok || pass.Pkg.Info.Uses[base] != recvObj {
			return true
		}
		if s, ok := pass.Pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			refs[sel.Sel.Name] = true
		}
		return true
	})
	return refs
}
