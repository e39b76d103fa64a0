// Command sactrace captures and replays memory-access traces.
//
// Usage:
//
//	sactrace record -bench RN -out rn.sact      # capture a Table-4 workload
//	sactrace info rn.sact                        # show header and counts
//	sactrace run rn.sact -org SAC                # replay through the simulator
//
// Traces let downstream users drive the simulator with their own access
// streams: anything writing the documented format (see internal/trace)
// replays exactly like a built-in workload.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	sac "repro"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errUsage marks a malformed command line; run answers it with the usage
// line and exit status 2.
var errUsage = errors.New("usage")

// run is the whole command: it dispatches the subcommand and returns the exit
// status (0 ok, 1 failed, 2 bad usage, 3 the run's -timeout expired).
func run(args []string, stdout, stderr io.Writer) int {
	usage := func() int {
		fmt.Fprintln(stderr, "usage: sactrace record|info|run [flags] [file]")
		return 2
	}
	if len(args) < 1 {
		return usage()
	}
	var err error
	switch args[0] {
	case "record":
		err = record(args[1:], stdout, stderr)
	case "info":
		err = info(args[1:], stdout)
	case "run":
		err = runTrace(args[1:], stdout, stderr)
	default:
		return usage()
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return usage()
	}
	fmt.Fprintln(stderr, "sactrace:", err)
	if errors.Is(err, context.DeadlineExceeded) {
		return 3
	}
	return 1
}

// parse parses a subcommand's flags, reporting a bad flag as errUsage.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	return nil
}

func record(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	bench := fs.String("bench", "RN", "benchmark to capture")
	out := fs.String("out", "", "output file (default <bench>.sact)")
	input := fs.Float64("input", 1, "input-set scale factor")
	if err := parse(fs, args, stderr); err != nil {
		return err
	}

	spec, err := sac.Benchmark(*bench)
	if err != nil {
		return err
	}
	if *input != 1 {
		spec = spec.ScaleInput(*input)
	}
	path := *out
	if path == "" {
		path = *bench + ".sact"
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.Capture(f, spec, sac.ScaledConfig().Machine()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "captured %s to %s (%d bytes)\n", spec.Name, path, st.Size())
	return nil
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func info(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	tr, err := loadTrace(args[0])
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Fprintf(stdout, "workload   %s\n", h.Name)
	fmt.Fprintf(stdout, "machine    %d chips x %d SMs x %d warps, %d B lines, %d B pages\n",
		h.Chips, h.SMsPerChip, h.WarpsPerSM, h.LineBytes, h.PageBytes)
	fmt.Fprintf(stdout, "scale      1/%d of paper footprints\n", h.Scale)
	fmt.Fprintf(stdout, "kernels    %d\n", h.Kernels)
	fmt.Fprintf(stdout, "accesses   %d\n", tr.TotalAccesses())
	return nil
}

func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	orgName := fs.String("org", "SAC", "LLC organization")
	faults := fs.String("faults", "", "fault plan: JSON file path or inline DSL")
	maxCycles := fs.Int64("max-cycles", 0, "override the per-kernel cycle limit (0 = preset default)")
	watchdog := fs.Int64("watchdog", -1, "abort when no request retires for this many cycles (0 = off, -1 = preset default)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the replay (0 = none; exceeding it exits 3)")
	if len(args) < 1 {
		return errUsage
	}
	path := args[0]
	if err := parse(fs, args[1:], stderr); err != nil {
		return err
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	org, err := llc.ParseOrg(*orgName)
	if err != nil {
		return err
	}
	tr, err := loadTrace(path)
	if err != nil {
		return err
	}
	rep := trace.NewReplay(tr)
	cfg := sac.ScaledConfig().WithOrg(org)
	if *maxCycles > 0 {
		cfg.MaxCycles = *maxCycles
	}
	if *watchdog >= 0 {
		cfg.WatchdogCycles = *watchdog
	}
	if err := rep.CheckMachine(cfg.Machine()); err != nil {
		return err
	}
	var plan *sac.FaultPlan
	if *faults != "" {
		if plan, err = fault.ParseOrLoad(*faults); err != nil {
			return err
		}
		if err := plan.Validate(cfg.FaultShape()); err != nil {
			return err
		}
	}
	st, err := sac.Run(cfg, rep, sac.WithFaults(plan), sac.WithContext(ctx))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s under %s: %d cycles, IPC %.4f, LLC hit %.3f, ring %d B, DRAM %d B\n",
		rep.SourceName(), org, st.Cycles, st.IPC(), st.LLCHitRate(),
		st.RingBytes, st.DRAMBytes)
	for _, k := range st.Kernels {
		fmt.Fprintf(stdout, "  #%-3d %-8s %-12s %10d cycles\n", k.Index, k.Name, k.Org, k.Cycles)
	}
	return nil
}
