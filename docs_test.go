package sac_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/fault"
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
	// A documented command line: go run ./<path>, then its arguments up to
	// a comment, the end of a code span, or the next command.
	goRunRe   = regexp.MustCompile("go run \\./([\\w./-]+)([^`#|;&>]*)")
	argFlagRe = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][\w-]*)`)
	// A flag a command declares: flag.Int("name", ...) or fs.Int("name", ...).
	declFlagRe = regexp.MustCompile(`\b(?:flag|fs)\.\w+\("([^"]+)"`)
	// A -faults argument: a quoted plan, or a bare word up to the next space.
	faultsArgRe = regexp.MustCompile("-faults[ \t]+(?:'([^']*)'|([^\\s`'\"]+))")
)

// docFaultPlans returns the argument of every -faults flag the documents
// show, in the order they show them.
func docFaultPlans(t testing.TB) []string {
	t.Helper()
	var plans []string
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range faultsArgRe.FindAllStringSubmatch(string(raw), -1) {
			plans = append(plans, m[1]+m[2])
		}
	}
	return plans
}

// TestDocsNameWhatExists fails on a document that sends its reader to
// something that is not there: a `make` target the Makefile does not define,
// a Test/Benchmark/Fuzz function no Go file in the tree (bench/ included)
// declares, a cmd/ directory or `go run ./<path>` directory that does not
// exist, a flag on a `go run ./cmd/<name>` line that the command does not
// declare, or a -faults argument that is not a plan in the fault DSL.
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

	flags := map[string]map[string]bool{} // command name → declared flags
	srcs, err := filepath.Glob(filepath.Join("cmd", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range srcs {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Dir(path)
		if flags[dir] == nil {
			flags[dir] = map[string]bool{}
		}
		for _, m := range declFlagRe.FindAllSubmatch(src, -1) {
			flags[dir][string(m[1])] = true
		}
	}

	for _, p := range docFaultPlans(t) {
		if _, err := fault.Parse(p); err != nil {
			t.Errorf("-faults %s: %v", p, err)
		}
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
		command := "" // the shell line so far, across trailing backslashes
		for i, line := range strings.Split(string(raw), "\n") {
			if command += line; strings.HasSuffix(command, "\\") {
				command = strings.TrimSuffix(command, "\\") + " "
			} else {
				for _, m := range goRunRe.FindAllStringSubmatch(command, -1) {
					dir := filepath.Clean(m[1])
					if st, err := os.Stat(dir); err != nil || !st.IsDir() {
						t.Errorf("%s:%d: go run ./%s: no such directory", doc, i+1, m[1])
						continue
					}
					declared, isCmd := flags[dir]
					if !isCmd {
						continue
					}
					for _, f := range argFlagRe.FindAllStringSubmatch(m[2], -1) {
						if !declared[f[1]] {
							t.Errorf("%s:%d: go run ./%s: no -%s flag in %s", doc, i+1, m[1], f[1], dir)
						}
					}
				}
				command = ""
			}
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
