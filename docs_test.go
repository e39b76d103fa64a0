package sac_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/fault"
)

// docFiles are the documents that tell a reader what to run; the first
// three are also checked for the Go identifiers they name.
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
	// A -fidelity argument, also across a wrapped line; "per-fidelity" is
	// prose, not the flag.
	fidelityArgRe = regexp.MustCompile("(?:^|[^\\w-])-fidelity\\s+([^\\s`'\"]+)")
	// A code span, and a qualified identifier in one that is not part of a
	// path or of a longer selector: `store.KeyAt`, `(*gpu.System).Run`.
	codeSpanRe  = regexp.MustCompile("`[^`\n]+`")
	qualIdentRe = regexp.MustCompile(`(?:^|[^\w/.])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)`)
	// A numbered heading of DESIGN.md ("## 12. Serving", "### 12.4 The
	// result store"): its number and its title.
	designHeadingRe = regexp.MustCompile(`(?m)^##+ (\d+(?:\.\d+)?)\.? (.+)$`)
	// A reference to a DESIGN.md section from another file, also across a
	// wrapped line or comment: a section number, or the start of a heading's
	// title in quotes.
	designRefRe = regexp.MustCompile(`DESIGN(?:\.md)?[\s/]+(?:§(\d+(?:\.\d+)?)|"([^"\n]+)")`)
	// A section reference inside DESIGN.md: its own unless it says "paper".
	sectionRefRe = regexp.MustCompile(`(paper )?§(\d+(?:\.\d+)?)`)
	prRe         = regexp.MustCompile(`\bPRs? \d+`)
)

// designBudget bounds DESIGN.md in bytes: under half of the 81,042 it had
// grown to before it was rewritten to say each thing once. A change that
// raises it says why in its CHANGES entry.
const designBudget = 40_360

// moduleGoFiles returns the root module's non-test Go files: bench/ (a
// module of its own), testdata/ and dot-directories are left out.
func moduleGoFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
		} else if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// moduleIdents maps each package name of moduleGoFiles (the root is sac;
// main packages are left out) to every name its files declare: funcs,
// methods, types, struct fields, interface methods, vars and consts.
func moduleIdents(t *testing.T) map[string]map[string]bool {
	t.Helper()
	idents := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range moduleGoFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "main" {
			continue
		}
		names := idents[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			idents[f.Name.Name] = names
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
				return false
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			}
			return true
		})
	}
	return idents
}

// The line budgets bound the newline bytes of moduleGoFiles: the whole
// tree, and the serving stack (servingStack's packages). A change that
// raises one says why in its CHANGES entry.
const (
	treeLineBudget    = 19_176
	servingLineBudget = 6_403
)

var servingStack = []string{"client", "internal/jobs", "internal/server", "internal/cluster",
	"internal/store", "internal/journal", "internal/wire"}

// TestLineBudget holds the tree and the serving stack to their line budgets,
// and logs each package's count, so a change over budget sees where its
// lines went.
func TestLineBudget(t *testing.T) {
	lines := map[string]int{} // package directory → lines
	var dirs []string
	for _, path := range moduleGoFiles(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if _, seen := lines[dir]; !seen {
			dirs = append(dirs, dir)
		}
		lines[dir] += bytes.Count(src, []byte("\n"))
	}
	sort.Strings(dirs)
	tree, serving := 0, 0
	for _, dir := range dirs {
		t.Logf("%6d %s", lines[dir], dir)
		tree += lines[dir]
		if slices.Contains(servingStack, dir) {
			serving += lines[dir]
		}
	}
	for _, b := range []struct {
		name          string
		count, budget int
	}{{"the tree", tree, treeLineBudget}, {"the serving stack", serving, servingLineBudget}} {
		t.Logf("%s: %d lines, budget %d", b.name, b.count, b.budget)
		if b.count > b.budget {
			t.Errorf("%s has %d lines of non-test Go, over its budget of %d: a PR that raises it says why in CHANGES",
				b.name, b.count, b.budget)
		}
	}
}

// docFlagArgs returns the argument of every flag re matches in the
// documents, in the order they show them (re's groups are alternatives).
func docFlagArgs(t testing.TB, re *regexp.Regexp) []string {
	t.Helper()
	var args []string
	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(raw), -1) {
			args = append(args, strings.Join(m[1:], ""))
		}
	}
	return args
}

// TestDocsNameWhatExists fails on a document that sends its reader to
// something that is not there: a DESIGN.md section that no heading numbers
// or titles (referenced from a document, from a Go file outside bench/, or
// from DESIGN.md itself; outside DESIGN.md only by title), a `make` target the Makefile does not define,
// a Test/Benchmark/Fuzz function no Go file in the tree (bench/ included)
// declares, a cmd/ directory or `go run ./<path>` directory that does not
// exist, a flag on a `go run ./cmd/<name>` line that the command does not
// declare, a -faults argument that is not a plan in the fault DSL, a
// -fidelity argument that is not a rung, or a `pkg.Ident` in README, DESIGN
// or EXPERIMENTS whose package of this module declares no such name. It also
// holds DESIGN.md to designBudget and to describing the system rather than
// its history: no "PR n".
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
	goSrcs := map[string][]byte{} // the Go files outside bench/
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
		if !strings.HasPrefix(path, "bench"+string(filepath.Separator)) {
			goSrcs[path] = src
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDesignRefs(t, goSrcs)

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

	idents := moduleIdents(t)
	for _, doc := range docFiles[:3] {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, span := range codeSpanRe.FindAllString(line, -1) {
				for _, m := range qualIdentRe.FindAllStringSubmatch(span, -1) {
					pkg, name := m[1], m[2]
					// A keyword cannot be declared: `sac.go` names a file.
					if declared, ours := idents[pkg]; ours && !token.IsKeyword(name) && !declared[name] {
						t.Errorf("%s:%d: %s.%s: package %s declares no %s", doc, i+1, pkg, name, pkg, name)
					}
				}
			}
		}
	}

	for _, p := range docFlagArgs(t, faultsArgRe) {
		if _, err := fault.Parse(p); err != nil {
			t.Errorf("-faults %s: %v", p, err)
		}
	}
	for _, f := range docFlagArgs(t, fidelityArgRe) {
		if _, err := backend.Normalize(f); err != nil {
			t.Errorf("-fidelity %s: %v", f, err)
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

var (
	// A /v1/ route a document names, in a curl line, a code span or prose.
	docRouteRe = regexp.MustCompile("/v1/[^\\s`\"'()\\]]*")
	// A pattern a mux registers, its method if any left out.
	handleFuncRe = regexp.MustCompile(`\.HandleFunc\("(?:[A-Z]+ )?([^"]+)"`)
)

// routeDirs hold every HandleFunc the daemons' muxes are built from.
var routeDirs = []string{"internal/jobs", "internal/cluster", "internal/server", "internal/obs"}

// TestDocsNameServedRoutes fails on a /v1/ route that README.md or
// DESIGN.md names and no HandleFunc in routeDirs registers. A route's query
// string is dropped, an <id> or {id} segment matches only a pattern's
// wildcard, and a trailing * (the /v1/jobs* family) needs one pattern it
// prefixes.
func TestDocsNameServedRoutes(t *testing.T) {
	var patterns [][]string
	for _, dir := range routeDirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range handleFuncRe.FindAllSubmatch(src, -1) {
				patterns = append(patterns, strings.Split(string(m[1]), "/"))
			}
		}
	}
	if len(patterns) == 0 {
		t.Fatal("no HandleFunc patterns found")
	}
	served := func(route string) bool {
		family := strings.HasSuffix(route, "*")
		segs := strings.Split(strings.TrimSuffix(route, "*"), "/")
		for _, p := range patterns {
			if len(p) != len(segs) && !(family && len(p) > len(segs)) {
				continue
			}
			ok := true
			for i, seg := range segs {
				wild := strings.HasPrefix(p[i], "{")
				switch {
				case family && i == len(segs)-1:
					ok = ok && !wild && strings.HasPrefix(p[i], seg)
				case strings.HasPrefix(seg, "{") || strings.HasPrefix(seg, "<"):
					ok = ok && wild
				default:
					ok = ok && (wild || p[i] == seg)
				}
			}
			if ok {
				return true
			}
		}
		return false
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, route := range docRouteRe.FindAllString(line, -1) {
				route, _, _ = strings.Cut(route, "?")
				if route = strings.TrimRight(route, ".,;:"); !served(route) {
					t.Errorf("%s:%d: %s: no HandleFunc in %v serves it", doc, i+1, route, routeDirs)
				}
			}
		}
	}
}

// checkDesignRefs resolves every DESIGN.md section reference, in DESIGN.md
// itself, in docFiles and in srcs, against DESIGN.md's headings, and holds
// DESIGN.md to its byte budget and its present tense. Outside DESIGN.md a
// reference quotes a heading's title: a section number is refused.
func checkDesignRefs(t *testing.T, srcs map[string][]byte) {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(design) > designBudget {
		t.Errorf("DESIGN.md is %d bytes, over its %d-byte budget", len(design), designBudget)
	}
	sections := map[string]bool{}
	var titles []string
	for _, m := range designHeadingRe.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
		titles = append(titles, m[2])
	}
	titled := func(title string) bool {
		for _, h := range titles {
			if strings.HasPrefix(h, title) {
				return true
			}
		}
		return false
	}
	for i, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, m := range sectionRefRe.FindAllStringSubmatch(line, -1) {
			if m[1] == "" && !sections[m[2]] {
				t.Errorf("DESIGN.md:%d: §%s: no such section", i+1, m[2])
			}
		}
		if pr := prRe.FindString(line); pr != "" {
			t.Errorf("DESIGN.md:%d: %q: DESIGN describes the system, not its history", i+1, pr)
		}
	}

	for _, doc := range docFiles {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		srcs[doc] = raw
	}
	for path, raw := range srcs {
		for _, m := range designRefRe.FindAllSubmatchIndex(raw, -1) {
			line := 1 + bytes.Count(raw[:m[0]], []byte("\n"))
			switch {
			case m[2] >= 0 && path != "DESIGN.md":
				t.Errorf("%s:%d: DESIGN.md §%s: cite a DESIGN section by its heading's title, which survives renumbering", path, line, raw[m[2]:m[3]])
			case m[2] >= 0 && !sections[string(raw[m[2]:m[3]])]:
				t.Errorf("%s:%d: DESIGN.md §%s: no such section", path, line, raw[m[2]:m[3]])
			case m[4] >= 0 && !titled(string(raw[m[4]:m[5]])):
				t.Errorf("%s:%d: DESIGN.md %q: no heading has that title", path, line, raw[m[4]:m[5]])
			}
		}
	}
}
