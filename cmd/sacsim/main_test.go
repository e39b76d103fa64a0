package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sac "repro"
)

// sacsim runs the command in process and returns its exit status and output.
func sacsim(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// usageLines returns the argument lists of the package doc's Usage block.
func usageLines(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]string
	for _, line := range strings.Split(string(src), "\n") {
		if cmd, ok := strings.CutPrefix(line, "//\tsacsim "); ok {
			cmd, _, _ = strings.Cut(cmd, "#")
			lines = append(lines, strings.Fields(cmd))
		}
	}
	if len(lines) == 0 {
		t.Fatal("no usage lines in the package doc")
	}
	return lines
}

// readmeLines returns the argument lists of README's `go run ./cmd/sacsim`
// lines, backslash continuations joined and a trailing comment or `&` cut.
// Lines naming -faults are left out: only the exact rung injects faults, and
// TestDocsNameWhatExists already parses their plans.
func readmeLines(t *testing.T) [][]string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]string
	command := ""
	for _, line := range strings.Split(string(src), "\n") {
		if command += line; strings.HasSuffix(command, "\\") {
			command = strings.TrimSuffix(command, "\\") + " "
			continue
		}
		cmd, ok := strings.CutPrefix(strings.TrimSpace(command), "go run ./cmd/sacsim ")
		command = ""
		if !ok || strings.Contains(cmd, "-faults") {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "#")
		lines = append(lines, strings.Fields(strings.TrimSuffix(strings.TrimSpace(cmd), "&")))
	}
	if len(lines) == 0 {
		t.Fatal("no go run ./cmd/sacsim lines in README.md")
	}
	return lines
}

// TestSacsim runs every usage line of the package doc and every sacsim line
// of README at the estimate rung (the listener and the trace file moved to a
// free port and a temporary directory), which reports nothing the rung does
// not model; one exact run checked against sac.Run; and the usage errors.
func TestSacsim(t *testing.T) {
	for _, args := range append(usageLines(t), readmeLines(t)...) {
		args = append(args, "-fidelity", "estimate")
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			trace := ""
			for i := 1; i < len(args); i++ {
				switch args[i-1] {
				case "-metrics-addr":
					args[i] = "127.0.0.1:0"
				case "-trace-out":
					trace = filepath.Join(t.TempDir(), args[i])
					args[i] = trace
				}
			}
			code, out, errOut := sacsim(args...)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, errOut)
			}
			if out == "" {
				t.Fatal("no output")
			}
			if strings.Contains(out, "response origin") {
				t.Fatalf("the estimate rung reported response origins it does not model:\n%s", out)
			}
			if trace != "" {
				raw, err := os.ReadFile(trace)
				if err != nil || !json.Valid(raw) {
					t.Fatalf("-trace-out wrote no JSON: %v", err)
				}
			}
		})
	}

	t.Run("exact SN", func(t *testing.T) {
		spec, err := sac.Benchmark("SN")
		if err != nil {
			t.Fatal(err)
		}
		st, err := sac.Run(sac.ScaledConfig().WithOrg(sac.SAC), spec)
		if err != nil {
			t.Fatal(err)
		}
		code, out, errOut := sacsim("-bench", "SN", "-org", "SAC")
		if code != 0 {
			t.Fatalf("exit %d:\n%s", code, errOut)
		}
		if want := fmt.Sprintf("\ncycles            %12d\n", st.Cycles); !strings.Contains(out, want) {
			t.Fatalf("stdout lacks %q:\n%s", want, out)
		}
	})

	for _, c := range []struct {
		name string
		args []string
		code int
		want string // on stderr
	}{
		{"bad org", []string{"-org", "L2"}, 2, ""},
		{"bad scale", []string{"-bench", "RN", "-scale", "paper"}, 2, ""},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"bad fidelity", []string{"-fidelity", "sampled"}, 1, ""},
		{"uncovered org", []string{"-org", "static", "-fidelity", "estimate"}, 1,
			`fidelity "estimate" does not model the static organization`},
		{"timeout", []string{"-bench", "BFS", "-timeout", "1ns"}, 3, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, _, errOut := sacsim(c.args...); code != c.code || !strings.Contains(errOut, c.want) {
				t.Fatalf("exit %d, want %d and %q:\n%s", code, c.code, c.want, errOut)
			}
		})
	}
}
