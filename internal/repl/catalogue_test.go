package repl

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"gbkmv/internal/fsx"
	"gbkmv/internal/repl/faultnet"
	"gbkmv/internal/server"
)

// TestMetricsCatalogue holds README's Observability table to what gbkmvd
// exposes: every gbkmv_* family a scrape of a leader with one collection and
// of a follower of it shows has a row, and every family a row names is
// shown. A family is exposed from its first event, so the scenario makes one
// of each: a build, a torn journal tail at startup, a dropped
// stream request, a fenced wal request, a corrupt snapshot the scrub finds,
// and a full disk that sheds the next insert. A row names families in
// backticks; a brace group inside a name is alternation
// (`gbkmv_scrub_{passes,failures}_total`), one at its end the label set
// (`gbkmv_disk_errors_total{op}`).
func TestMetricsCatalogue(t *testing.T) {
	ldir := t.TempDir()
	first := startNode(t, ldir)
	if code, m := first.doJSON(t, "PUT", "/collections/c", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	insertMany(t, first, "c", 100)
	first.crash()
	appendFile(t, filepath.Join(ldir, "c", "journal-1.log"), rawFrame(t, []string{"torn"})[:8])
	ffs := &fsx.FaultFS{}
	leader := startNodeWith(t, ldir, server.StoreOptions{FS: ffs})
	// Build stage timings are per stage, not per collection: a build after
	// the restart that leaves no second collection behind.
	if code, m := leader.doJSON(t, "PUT", "/collections/scratch", testCorpus); code != http.StatusOK {
		t.Fatalf("build: %d %v", code, m)
	}
	if code, m := leader.doJSON(t, "DELETE", "/collections/scratch", ""); code != http.StatusOK {
		t.Fatalf("delete: %d %v", code, m)
	}

	ft := &faultnet.Transport{Match: func(r *http.Request) bool { return strings.HasSuffix(r.URL.Path, "/wal") }}
	ft.Drop(1)
	fnode := startNode(t, t.TempDir())
	newChaosFollower(t, fnode, leader.ts.URL, ft, nil).Start(context.Background())
	waitFor(t, 30*time.Second, "convergence", func() bool { return caughtUp(leader, fnode, "c") })
	for _, n := range []*node{leader, fnode} {
		n.doJSON(t, "POST", "/collections/c/search", `{"query": ["five", "guys"], "threshold": 0.5}`)
	}
	if code, _ := leader.doJSON(t, "GET", "/collections/c/wal?gen=1&from=1000000000", ""); code != http.StatusGone {
		t.Fatalf("wal past the durable frontier: %d, want 410", code)
	}
	appendFile(t, filepath.Join(ldir, "c", "index-1.snap"), []byte{0})
	if rep := leader.store.ScrubNow(); len(rep.Failures) != 1 {
		t.Fatalf("scrub of a corrupt snapshot: %+v", rep)
	}
	ffs.WriteBudget(0)
	for _, want := range []int{http.StatusInternalServerError, http.StatusServiceUnavailable} {
		if code, m := leader.doJSON(t, "POST", "/collections/c/records", `{"records": [["full"]]}`); code != want {
			t.Fatalf("insert on a full disk: %d %v, want %d", code, m, want)
		}
	}

	exposed := map[string]bool{}
	typeLine := regexp.MustCompile(`(?m)^# TYPE (gbkmv_\w+) `)
	for _, n := range []*node{leader, fnode} {
		for _, m := range typeLine.FindAllStringSubmatch(metricsBody(t, n), -1) {
			exposed[m[1]] = true
		}
	}
	named := readmeFamilies(t)
	var noRow, notExposed []string
	for name := range exposed {
		if !named[name] {
			noRow = append(noRow, name)
		}
	}
	for name := range named {
		if !exposed[name] {
			notExposed = append(notExposed, name)
		}
	}
	sort.Strings(noRow)
	sort.Strings(notExposed)
	if len(noRow) > 0 {
		t.Errorf("exposed families with no row in README's Observability table:\n%s", strings.Join(noRow, "\n"))
	}
	if len(notExposed) > 0 {
		t.Errorf("families README's Observability table names that no scrape shows:\n%s", strings.Join(notExposed, "\n"))
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// readmeFamilies returns the gbkmv_* families the first cells of README's
// Observability table name, brace alternations expanded and label sets
// dropped.
func readmeFamilies(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	start := strings.Index(doc, "\n### Observability\n")
	if start < 0 {
		t.Fatal("README has no Observability section")
	}
	doc = doc[start+1:]
	if end := strings.Index(doc, "\n#"); end >= 0 {
		doc = doc[:end]
	}
	span := regexp.MustCompile("`(gbkmv_[^`]*)`")
	out := map[string]bool{}
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "| `gbkmv_") {
			continue
		}
		cell := strings.SplitN(line[1:], "|", 2)[0]
		for _, m := range span.FindAllStringSubmatch(cell, -1) {
			name := m[1]
			if strings.HasSuffix(name, "}") {
				name = name[:strings.LastIndex(name, "{")]
			}
			for _, n := range expandBraces(name) {
				out[n] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("README's Observability table names no gbkmv_ family")
	}
	return out
}

// expandBraces expands every {a,b,...} group of s.
func expandBraces(s string) []string {
	open := strings.Index(s, "{")
	if open < 0 {
		return []string{s}
	}
	end := open + strings.Index(s[open:], "}")
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}
