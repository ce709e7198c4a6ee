package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// tree is the whole module, loaded once per test binary and shared by
// TestTreeClean, TestLatencyTruth and TestEscapeGroundTruth; none of
// them modifies it.
var tree struct {
	once sync.Once
	root string
	pkgs []*Package
	err  error
}

// loadTree returns the module root and its type-checked packages.
func loadTree(t *testing.T) (string, []*Package) {
	t.Helper()
	tree.once.Do(func() {
		tree.root, tree.err = filepath.Abs(filepath.Join("..", ".."))
		if tree.err == nil {
			tree.pkgs, tree.err = LoadModule(tree.root, []string{"./..."})
		}
	})
	if tree.err != nil {
		t.Fatal(tree.err)
	}
	return tree.root, tree.pkgs
}

// TestTreeClean runs the whole vaxlint suite over the module and fails on
// any finding: the same verdict as `vaxlint ./...`, in tier-1. It is what
// proves checkpoint completeness — statecomplete holds every field of
// every ExportState/ImportState type to a capture in both methods or a
// justified exemption at its declaration.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and analyzes the whole module")
	}
	_, pkgs := loadTree(t)
	diags, err := Run(All(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
