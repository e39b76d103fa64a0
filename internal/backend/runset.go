package backend

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/gpu"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunSet runs the cells of one run-set — a sacd batch, a sweep — and shares
// estimate-rung replays among them. SAC profiles a kernel under the
// memory-side configuration before it prices either organization (§3.2–3.3),
// so the replay depends on the machine and the workload, not on the org, the
// bandwidths or θ: the first estimate cell of a profile key (profileKeyOf)
// replays, and its groupmates price the same profile. Each cell still runs
// its own checks, and its bytes are those of a lone Run. A replay that fails
// or is canceled is not shared: its groupmates replay for themselves. Every
// other cell — another rung, a trace replay — is a plain Run.
//
// Profiles live as long as the set: it is scoped to one run-set, not the
// process. The zero RunSet is ready to use, and safe for concurrent use.
type RunSet struct {
	// OnReplay, when set, is called once per replay the set runs.
	OnReplay func()

	mu       sync.Mutex
	profiles map[profileKey]*sharedProfile
}

// sharedProfile is one replay of a RunSet: kps and err are written before
// done closes, and read only after.
type sharedProfile struct {
	done chan struct{}
	kps  []kernelProfile
	err  error
}

// errReplayAbandoned is a replay's error until it returns: a panicking
// replay leaves it set, so the profile is evicted like any failure.
var errReplayAbandoned = errors.New("backend: estimate replay abandoned")

// Run runs one cell of the set and answers what the package's Run answers.
func (s *RunSet) Run(cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) (*stats.Run, error) {
	spec, isSpec := w.(workload.Spec)
	if f, err := Normalize(o.Fidelity); err != nil || f != Estimate || !isSpec {
		return Run(cfg, w, o)
	}
	if err := checkEstimate(cfg, w, o); err != nil {
		return nil, err
	}
	kps, err := s.profile(profileKeyOf(cfg, spec.Name), cfg, w, o)
	if err != nil {
		return nil, err
	}
	return synthesize(cfg, w, kps), nil
}

// profile returns key's profile: the set's, once its replay has succeeded,
// or one this call replays. A cell waits on a groupmate's replay only as
// long as its own context allows.
func (s *RunSet) profile(key profileKey, cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) ([]kernelProfile, error) {
	var canceled <-chan struct{}
	if o.Ctx != nil {
		canceled = o.Ctx.Done()
	}
	for {
		s.mu.Lock()
		p := s.profiles[key]
		if p == nil {
			if s.profiles == nil {
				s.profiles = make(map[profileKey]*sharedProfile)
			}
			p = &sharedProfile{done: make(chan struct{})}
			s.profiles[key] = p
			s.mu.Unlock()
			s.replay(key, p, cfg, w, o)
			return p.kps, p.err
		}
		s.mu.Unlock()
		select {
		case <-p.done:
		case <-canceled:
			return nil, fmt.Errorf("backend: estimate canceled: %w", o.Ctx.Err())
		}
		if p.err == nil {
			return p.kps, nil
		}
		// The replay failed and was evicted before p.done closed: look
		// again, and replay for this cell if no groupmate already does.
	}
}

// replay runs p's replay and publishes it. A failed one — an error, a
// canceled context, a panic — is evicted before its waiters wake, as the
// job engine's flight table evicts a failed flight.
func (s *RunSet) replay(key profileKey, p *sharedProfile, cfg gpu.Config, w gpu.Workload, o gpu.RunOpts) {
	p.err = errReplayAbandoned
	defer func() {
		if p.err != nil {
			s.mu.Lock()
			delete(s.profiles, key)
			s.mu.Unlock()
		}
		close(p.done)
	}()
	if s.OnReplay != nil {
		s.OnReplay()
	}
	pool, sc := takeScratch(cfg)
	defer giveScratch(pool, sc)
	kps, err := profile(cfg, w, o, sc)
	if err == nil {
		p.kps = slices.Clone(kps) // the scratch goes back to its pool
	}
	p.err = err
}
