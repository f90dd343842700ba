package gbkmv_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocFlagsExist fails when README's "gbkmvd: the sketch server" section
// names a gbkmvd flag the daemon does not define: a `-name` in an inline
// code span, or a -name on a gbkmvd command line of a code block
// (continuation lines included). The flags are what cmd/gbkmvd/main.go
// passes to the flag package's definers, read with go/parser.
func TestDocFlagsExist(t *testing.T) {
	defined := gbkmvdFlags(t)
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "\n## gbkmvd: the sketch server\n")
	if start < 0 {
		t.Fatal(`README has no "gbkmvd: the sketch server" section`)
	}
	doc = doc[start+1:]
	if end := strings.Index(doc[1:], "\n## "); end >= 0 {
		doc = doc[:end+1]
	}

	inline := regexp.MustCompile("`-([a-z][a-z0-9-]*)[^`]*`")
	invocation := regexp.MustCompile(`(?:^|[\s$/])gbkmvd\s`)
	arg := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	unknown := map[string]bool{}
	note := func(name string) {
		if !defined[name] {
			unknown["-"+name] = true
		}
	}
	inFence, command := false, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence, command = !inFence, false
			continue
		}
		if !inFence {
			for _, m := range inline.FindAllStringSubmatch(line, -1) {
				note(m[1])
			}
			continue
		}
		if loc := invocation.FindStringIndex(line); loc != nil {
			command = true
			line = line[loc[1]:]
		}
		if !command {
			continue
		}
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		for _, m := range arg.FindAllStringSubmatch(line, -1) {
			note(m[1])
		}
		command = strings.HasSuffix(strings.TrimSpace(line), `\`)
	}
	if len(unknown) > 0 {
		names := make([]string, 0, len(unknown))
		for n := range unknown {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("README's gbkmvd section names flags gbkmvd does not define: %s", strings.Join(names, ", "))
	}
}

// gbkmvdFlags returns the names cmd/gbkmvd/main.go defines with flag.X("name", …).
func gbkmvdFlags(t *testing.T) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cmd/gbkmvd/main.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names[name] = true
			}
		}
		return true
	})
	if len(names) == 0 {
		t.Fatal("found no flag definitions in cmd/gbkmvd/main.go")
	}
	return names
}
