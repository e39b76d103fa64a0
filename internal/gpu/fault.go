package gpu

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/xchip"
)

// FaultShape returns the fault-plan bounds of this configuration: the unit
// counts a plan's events are validated against.
func (c Config) FaultShape() fault.Shape {
	return fault.Shape{
		Chips:           c.Chips,
		ChannelsPerChip: c.ChannelsPerChip,
		SlicesPerChip:   c.SlicesPerChip,
		ClustersPerChip: c.ClustersPerChip(),
	}
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
	changes := s.inj.Advance(s.now)
	if len(changes) == 0 {
		return
	}
	for _, ch := range changes {
		s.run.FaultEvents++
		s.traceFaultEdge(ch)
		c := s.chips[ch.Chip]
		switch ch.Domain {
		case fault.XChip:
			s.ring.SetLinkScale(ch.Chip, xchip.Direction(ch.Unit), ch.Scale)
		case fault.DRAM:
			c.mem.SetChannelScale(ch.Unit, ch.Scale)
		case fault.LLC:
			usable := int(math.Round(ch.Scale * float64(s.cfg.LLCWays)))
			s.limitSliceWays(c, ch.Unit, usable)
		case fault.NoC:
			c.reqNet.SetInPortScale(ch.Unit, ch.Scale)
		}
	}
	s.faultTopologyChanged()
}

// limitSliceWays applies an LLC capacity remap to one slice, turning the
// dropped dirty lines into ordinary writeback traffic.
func (s *System) limitSliceWays(c *chip, si, usable int) {
	c.slices[si].arr.LimitWays(usable, func(line uint64, remote bool) {
		home := s.pages.Home(line)
		if home < 0 {
			home = c.idx
		}
		s.writeback(c, line, home)
		s.run.DirtyFlushed++
	})
}

// faultTopologyChanged tells the SAC controller the machine it is reasoning
// about no longer matches its ArchParams: the EAB inputs are rebuilt from
// the composed per-domain degradation and a re-profiling window is
// requested (served by controlPhase once the system is in stRun).
func (s *System) faultTopologyChanged() {
	if s.sac == nil {
		return
	}
	if err := s.sac.SetArch(s.degradedArch()); err != nil {
		// Unreachable: degradedArch clamps every bandwidth positive.
		panic(fmt.Sprintf("gpu: degraded arch rejected: %v", err))
	}
	s.faultReprofile = true
}

// degradedArch scales the healthy ArchParams by the injector's mean residual
// capacity per domain. Bandwidths are clamped to a small positive floor so
// a full-outage topology still satisfies ArchParams.Validate (the EAB model
// then simply finds that configuration hopeless rather than dividing by 0).
func (s *System) degradedArch() core.ArchParams {
	a := s.cfg.ArchParams()
	n := s.cfg.Chips
	a.BInter *= s.inj.AvgScale(fault.XChip, n*2)
	a.BMem *= s.inj.AvgScale(fault.DRAM, n*s.cfg.ChannelsPerChip)
	a.BLLC *= s.inj.AvgScale(fault.LLC, n*s.cfg.SlicesPerChip)
	a.BIntra *= s.inj.AvgScale(fault.NoC, n*s.cfg.ClustersPerChip())
	const floor = 1e-3 // bytes/cycle
	a.BIntra = math.Max(a.BIntra, floor)
	a.BInter = math.Max(a.BInter, floor)
	a.BLLC = math.Max(a.BLLC, floor)
	a.BMem = math.Max(a.BMem, floor)
	return a
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
