package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	sac "repro"
)

// sactrace runs the command in process and returns its exit status and
// output.
func sactrace(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSactraceRoundTrip records SN, checks what info reports about the file,
// and replays it: the replay must take exactly as many cycles as the
// synthetic workload it was captured from.
func TestSactraceRoundTrip(t *testing.T) {
	spec, err := sac.Benchmark("SN")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sac.Run(sac.ScaledConfig().WithOrg(sac.SAC), spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sn.sact")

	steps := []struct {
		args []string
		want []string // substrings of stdout
	}{
		{[]string{"record", "-bench", "SN", "-out", path}, []string{"captured SN to " + path}},
		{[]string{"info", path}, []string{
			fmt.Sprintf("kernels    %d\n", spec.KernelCount()),
			fmt.Sprintf("accesses   %d\n", want.MemOps),
		}},
		{[]string{"run", path, "-org", "SAC"}, []string{fmt.Sprintf("under SAC: %d cycles,", want.Cycles)}},
	}
	for _, s := range steps {
		code, out, errOut := sactrace(s.args...)
		if code != 0 {
			t.Fatalf("sactrace %s: exit %d:\n%s", strings.Join(s.args, " "), code, errOut)
		}
		for _, w := range s.want {
			if !strings.Contains(out, w) {
				t.Errorf("sactrace %s: stdout lacks %q:\n%s", strings.Join(s.args, " "), w, out)
			}
		}
	}

	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"run", path, "-timeout", "1ns"}, 3},
		{[]string{"run", path, "-org", "L2"}, 1},
		{[]string{"run", path, "-no-such-flag"}, 2},
		{[]string{"info"}, 2},
		{[]string{"replay", path}, 2},
	} {
		if code, _, errOut := sactrace(c.args...); code != c.code {
			t.Errorf("sactrace %s: exit %d, want %d:\n%s", strings.Join(c.args, " "), code, c.code, errOut)
		}
	}
}
