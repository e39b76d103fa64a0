// Command bench is the repository's benchmark: one command, four workloads,
// end-to-end metrics plus a per-layer table for the simulator and the
// serving fleet. It measures every layer from outside — by timing calls into
// public functions, reading public counters, and attributing a CPU profile
// of the run to Go packages — and claims no gain. See README.md.
//
// The driver's contract (BENCHMARK.json) is
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// whose last line of standard output is {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics untraced, the per-layer ones traced.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"text/tabwriter"
)

// options are the command line.
type options struct {
	workload  string
	all       bool
	seed      int64
	seconds   float64
	trace     int
	size      string
	repeat    int
	out       string
	outDir    string
	compare   bool
	regen     bool
	printSpec bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: exact_sweep | estimate_sweep | serve_warm | fleet_cold")
	flag.BoolVar(&o.all, "all", false, "run the four workloads in order, each in a process of its own")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: permutes cell order, batch composition and fleet_cold key offsets")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "run length the fixed pass counts are sized for")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: spans, probes and a CPU profile; reports the per-layer metrics and writes <out>/<workload>.trace.json")
	flag.StringVar(&o.size, "size", sizeFull, "full | smoke (seconds-long variant the package test runs)")
	flag.IntVar(&o.repeat, "repeat", 1, "run N times (seeds seed..seed+N-1) and report median and quartiles")
	flag.StringVar(&o.out, "o", "", "also write the reports, as a JSON array, to this file (input of -compare)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for Chrome traces")
	flag.BoolVar(&o.compare, "compare", false, "compare two report files: bench -compare a.json b.json; exits 1 if b breaks a bound against a")
	flag.BoolVar(&o.regen, "regen-golden", false, "re-simulate every golden cell and rewrite "+goldenPath)
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json as this build defines it")
	flag.Parse()
	if err := dispatch(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(o options) error {
	switch {
	case o.printSpec:
		b, err := benchmarkJSON()
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	case o.regen:
		return regenGolden()
	case o.compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if o.size != sizeFull && o.size != sizeSmoke {
		return fmt.Errorf("unknown -size %q", o.size)
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.repeat < 1 {
		return fmt.Errorf("need -seconds > 0, -trace 0|1, -repeat >= 1")
	}
	var names []string
	if o.all {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, ok := workloadByName(o.workload); ok {
		names = []string{o.workload}
	} else {
		return fmt.Errorf("unknown -workload %q", o.workload)
	}
	if !o.all && o.repeat == 1 {
		w, _ := workloadByName(o.workload)
		rep, err := runWorkload(w, runOpts{seed: o.seed, seconds: o.seconds, trace: o.trace == 1, size: o.size, outDir: o.outDir})
		if err != nil {
			return err
		}
		return emit(rep, o.out)
	}

	// -all / -repeat: every run gets a process of its own, so one run's heap
	// and peak RSS never leak into the next. With -trace 1 each workload is
	// run untraced, then traced.
	var reports []*report
	for _, name := range names {
		for r := 0; r < o.repeat; r++ {
			for t := 0; t <= o.trace; t++ {
				rep, err := runChild(name, o.seed+int64(r), t, o)
				if err != nil {
					return err
				}
				reports = append(reports, rep)
			}
		}
	}
	summarize(os.Stderr, reports)
	if o.out != "" {
		if err := writeReports(o.out, reports); err != nil {
			return err
		}
	}
	for _, rep := range reports {
		if !rep.Correct {
			return fmt.Errorf("%s seed %d: %d of %d cells failed: %s", rep.Workload, rep.Seed, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
	}
	return nil
}

// emit prints one run: the full report as the first line of standard output,
// a readable table on standard error, and the driver's contract line last.
func emit(rep *report, out string) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(full))
	summarize(os.Stderr, []*report{rep})
	if out != "" {
		if err := writeReports(out, []*report{rep}); err != nil {
			return err
		}
	}
	metrics := rep.EndToEnd
	if rep.Trace {
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%d of %d cells failed: %s", rep.Failed, rep.Attempted, rep.FirstFailure)
	}
	return nil
}

// runChild runs one workload once in a child process and parses the report
// from the first line of its output. The child is waited for before return.
func runChild(name string, seed int64, trace int, o options) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-size", o.size, "-out", o.outDir)
	stdout, err := cmd.Output() // the child's table is dropped; the parent prints its own
	first, _, _ := bytes.Cut(stdout, []byte("\n"))
	var rep report
	if json.Unmarshal(first, &rep) == nil && rep.Workload != "" {
		return &rep, nil // a run with failed cells exits 1 but still reports
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("%s seed %d: %v: %s", name, seed, err, ee.Stderr)
	}
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s seed %d: no report on standard output", name, seed)
}

func writeReports(path string, reports []*report) error {
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReports(path string) ([]*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var reports []*report
	if err := json.Unmarshal(b, &reports); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reports, nil
}

// series collects one metric's values over the reports of one workload.
type series struct {
	workload, metric, unit string
	values                 []float64
}

// collect groups metric values by workload (in first-seen order) and metric
// (in spec order). traced selects the per-layer list from traced runs;
// otherwise the end-to-end list from untraced runs only.
func collect(reports []*report, traced bool) []series {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var order []string
	byWorkload := map[string][]*report{}
	for _, rep := range reports {
		if rep.Trace != traced {
			continue
		}
		if _, seen := byWorkload[rep.Workload]; !seen {
			order = append(order, rep.Workload)
		}
		byWorkload[rep.Workload] = append(byWorkload[rep.Workload], rep)
	}
	var out []series
	for _, w := range order {
		for _, d := range defs {
			s := series{workload: w, metric: d.Name, unit: d.Unit}
			for _, rep := range byWorkload[w] {
				metrics := rep.EndToEnd
				if traced {
					metrics = rep.PerLayer
				}
				if mv, ok := metrics[d.Name]; ok {
					s.values = append(s.values, mv.Value)
				}
			}
			if len(s.values) > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// summarize prints median and quartiles of every metric, per workload.
func summarize(f *os.File, reports []*report) {
	tw := tabwriter.NewWriter(f, 0, 8, 2, ' ', 0)
	for _, traced := range []bool{false, true} {
		ss := collect(reports, traced)
		if len(ss) == 0 {
			continue
		}
		fmt.Fprintln(tw, "workload\tmetric\tmedian\tq1\tq3\tunit\truns")
		for _, s := range ss {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\t%d\n", s.workload, s.metric,
				median(s.values), quantile(s.values, 0.25), quantile(s.values, 0.75), s.unit, len(s.values))
		}
	}
	tw.Flush()
	for _, rep := range reports {
		if !rep.Correct {
			fmt.Fprintf(f, "FAILED %s seed %d: %d of %d cells: %s\n", rep.Workload, rep.Seed, rep.Failed, rep.Attempted, rep.FirstFailure)
		}
	}
}

// compareFiles applies the end-to-end bounds: for every workload and metric
// present in both files, b's median may be worse than a's by at most the
// metric's bound (a share of a's median). Any failed cell in b also fails.
func compareFiles(pathA, pathB string) error {
	a, err := readReports(pathA)
	if err != nil {
		return err
	}
	b, err := readReports(pathB)
	if err != nil {
		return err
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.Name] = d
	}
	base := map[string]series{}
	for _, s := range collect(a, false) {
		base[s.workload+"\x00"+s.metric] = s
	}
	broken := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta median\tb median\tchange\tbound\tverdict")
	for _, s := range collect(b, false) {
		ref, ok := base[s.workload+"\x00"+s.metric]
		if !ok {
			continue
		}
		d := bounds[s.metric]
		ma, mb := median(ref.values), median(s.values)
		worse := (mb - ma) / ma // share of a's median; positive = worse
		if d.Better == higher {
			worse = -worse
		}
		verdict := "ok"
		if worse > d.Bound {
			verdict = "REGRESSION"
			broken++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%% worse\t%.0f%%\t%s\n", s.workload, s.metric, ma, mb, 100*worse, 100*d.Bound, verdict)
	}
	tw.Flush()
	for _, rep := range b {
		if !rep.Correct {
			fmt.Printf("%s seed %d: %d of %d cells failed: %s\n", rep.Workload, rep.Seed, rep.Failed, rep.Attempted, rep.FirstFailure)
			broken++
		}
	}
	if broken > 0 {
		return fmt.Errorf("%d bounds broken", broken)
	}
	return nil
}
