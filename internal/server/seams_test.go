package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

// TestServerSeams pins the split of the store into wal, generations and
// Collection: the journal, its locks and the commit state are touched in
// wal.go alone, a collection's files are named in generations.go and
// integrity.go alone, and no file grows past a size one person can hold.
// It prints the per-file line table.
func TestServerSeams(t *testing.T) {
	const maxLines = 900
	walFields := map[string]bool{"ioMu": true, "syncMu": true, "journal": true, "commit": true, "requests": true}
	pathFuncs := map[string]bool{"metaPath": true, "indexPath": true, "vocabPath": true, "journalPath": true, "readMeta": true}
	pathFiles := map[string]bool{"generations.go": true, "integrity.go": true}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			lines[name] = fset.File(file.Pos()).LineCount()
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if walFields[n.Sel.Name] && name != "wal.go" {
						t.Errorf("%s: .%s is the wal's; only wal.go may touch it", fset.Position(n.Sel.Pos()), n.Sel.Name)
					}
				case *ast.CallExpr:
					if id, ok := n.Fun.(*ast.Ident); ok && pathFuncs[id.Name] && !pathFiles[name] {
						t.Errorf("%s: %s names a collection's files; only generations.go and integrity.go may", fset.Position(id.Pos()), id.Name)
					}
				}
				return true
			})
		}
	}
	names := make([]string, 0, len(lines))
	total := 0
	for name, n := range lines {
		names = append(names, name)
		total += n
		if n > maxLines {
			t.Errorf("%s: %d lines, over the %d-line bound", name, n, maxLines)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		t.Logf("%5d %s", lines[name], name)
	}
	t.Logf("%5d total (%d files)", total, len(names))
}
