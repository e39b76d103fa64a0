package gpu

import (
	"fmt"
	"strings"

	"repro/internal/fault"
	"repro/internal/xchip"
)

// FaultShape returns the fault-plan bounds of this configuration: the unit
// counts a plan's events are validated against.
func (c Config) FaultShape() fault.Shape {
	return fault.Shape{Chips: c.Chips, ChannelsPerChip: c.ChannelsPerChip}
}

// InjectFaults arms the system with a fault plan. It must be called before
// Run; a nil or empty plan leaves the system fault-free (and the run
// bit-identical to one that never called InjectFaults).
func (s *System) InjectFaults(p *fault.Plan) error {
	if p.Empty() {
		s.inj = nil
		return nil
	}
	if err := p.Validate(s.cfg.FaultShape()); err != nil {
		return err
	}
	s.inj = fault.NewInjector(p)
	return nil
}

// applyFaults replays the fault edges due at the current cycle onto the
// device models. It runs at the top of step, so every edge takes effect at
// its exact cycle regardless of how the preceding idle span was skipped.
func (s *System) applyFaults() {
	for _, ch := range s.inj.Advance(s.now) {
		s.run.FaultEvents++
		s.traceFaultEdge(ch)
		if ch.Domain == fault.XChip {
			s.ring.SetLinkScale(ch.Chip, xchip.Direction(ch.Unit), ch.Scale)
		} else {
			s.chips[ch.Chip].mem.SetChannelScale(ch.Unit, ch.Scale)
		}
	}
}

// StallError is the progress watchdog's verdict: no request retired (and no
// idle span was skippable) for more than Config.WatchdogCycles consecutive
// cycles — the system is wedged, typically by a fault window with no bypass
// path. Dump carries the queue and pipeline occupancies at abort time.
type StallError struct {
	Benchmark    string
	Kernel       int   // kernel invocation index
	Cycle        int64 // cycle at which the watchdog fired
	LastProgress int64 // cycle of the last retirement or skippable span
	Window       int64 // configured watchdog window
	State        string
	Dump         string
}

func (e *StallError) Error() string {
	return fmt.Sprintf("gpu: %s kernel %d stalled: no progress in %d cycles (now %d, last progress %d, state %s)\n%s",
		e.Benchmark, e.Kernel, e.Cycle-e.LastProgress, e.Cycle, e.LastProgress, e.State, e.Dump)
}

func (st runState) String() string {
	switch st {
	case stRun:
		return "run"
	case stDrainSwitch:
		return "drain-switch"
	case stDrainSwitchWB:
		return "drain-switch-wb"
	case stDrainEnd:
		return "drain-end"
	case stDrainEndWB:
		return "drain-end-wb"
	case stDrainRevert:
		return "drain-revert"
	case stDrainRevertWB:
		return "drain-revert-wb"
	}
	return fmt.Sprintf("state(%d)", uint8(st))
}

// newStallError snapshots the wedged system.
func (s *System) newStallError() *StallError {
	var b strings.Builder
	fmt.Fprintf(&b, "  mode=%s ring.pending=%d", s.mode, s.ring.Pending())
	if s.inj != nil {
		fmt.Fprintf(&b, " active_faults=%d", s.inj.ActiveFaults())
	}
	b.WriteByte('\n')
	for _, c := range s.chips {
		fmt.Fprintf(&b, "  chip %d: reqNet=%d respNet=%d dram=%d hits=%d", c.idx,
			c.reqNet.Pending(), c.respNet.Pending(), c.mem.Pending(), c.hitDelay.Len())
		for si := range c.slices {
			sl := &c.slices[si]
			fmt.Fprintf(&b, " slice%d[q=%d mshr=%d]", si, sl.lookupQ.Len(), sl.mshr.Len())
		}
		b.WriteByte('\n')
	}
	return &StallError{
		Benchmark:    s.spec.SourceName(),
		Kernel:       s.kernelIdx,
		Cycle:        s.now,
		LastProgress: s.lastProgress,
		Window:       s.cfg.WatchdogCycles,
		State:        s.state.String(),
		Dump:         strings.TrimRight(b.String(), "\n"),
	}
}
