package sac_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that tell a reader what to run.
var docFiles = []string{
	"README.md", "DESIGN.md", "EXPERIMENTS.md",
	".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml",
}

var (
	makeTargetRe = regexp.MustCompile(`(?m)^([A-Za-z0-9_-]+):`)
	goFuncRe     = regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Test|Benchmark|Fuzz)\w*)`)
	// A make invocation is a command line (`run: make a b`, or a line of a
	// fenced block that starts with make) or an inline code span that
	// starts with make. Prose ("the two bounds that make this work") is
	// neither.
	makeLineRe = regexp.MustCompile(`^\s*(?:-\s+)?(?:run:\s*)?make\s+(.*)$`)
	makeSpanRe = regexp.MustCompile("`make ([^`]*)`")
	targetRe   = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	// cmd/<name> not preceded by a path element: ./cmd/sacsim is ours,
	// golang.org/x/vuln/cmd/govulncheck is not.
	cmdRe = regexp.MustCompile(`(?:^|[^\w/.])(?:\./)?cmd/([a-z][a-z0-9_-]*)`)
)

// TestDocsNameWhatExists fails on a document that sends its reader to
// something that is not there: a `make` target the Makefile does not define,
// a Test/Benchmark/Fuzz function no Go file in the tree (bench/ included)
// declares, or a cmd/ directory that does not exist.
func TestDocsNameWhatExists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRe.FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}

	funcs := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range goFuncRe.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkTargets := func(line int, words string) {
			words, _, _ = strings.Cut(words, "#")
			for _, w := range strings.Fields(words) {
				if !targetRe.MatchString(w) {
					break
				}
				if !targets[w] {
					t.Errorf("%s:%d: `make %s`: no such Makefile target", doc, line, w)
				}
			}
		}
		markdown, fenced := strings.HasSuffix(doc, ".md"), false
		for i, line := range strings.Split(string(raw), "\n") {
			if markdown && strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if m := makeLineRe.FindStringSubmatch(line); m != nil && (fenced || !markdown) {
				checkTargets(i+1, m[1])
			}
			for _, m := range makeSpanRe.FindAllStringSubmatch(line, -1) {
				checkTargets(i+1, m[1])
			}
			for _, name := range testNameRe.FindAllString(line, -1) {
				if !funcs[name] {
					t.Errorf("%s:%d: %s is not declared anywhere in the tree", doc, i+1, name)
				}
			}
			for _, m := range cmdRe.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !st.IsDir() {
					t.Errorf("%s:%d: cmd/%s does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}
