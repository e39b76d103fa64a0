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

// TestSacsim runs every usage line of the package doc at the estimate rung
// (the listener and the trace file moved to a free port and a temporary
// directory), one exact run checked against sac.Run, and the usage errors.
func TestSacsim(t *testing.T) {
	for _, args := range usageLines(t) {
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
	}{
		{"bad org", []string{"-org", "L2"}, 2},
		{"bad scale", []string{"-bench", "RN", "-scale", "paper"}, 2},
		{"bad flag", []string{"-no-such-flag"}, 2},
		{"timeout", []string{"-bench", "BFS", "-timeout", "1ns"}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			if code, _, errOut := sacsim(c.args...); code != c.code {
				t.Fatalf("exit %d, want %d:\n%s", code, c.code, errOut)
			}
		})
	}
}
