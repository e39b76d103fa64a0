package server

// Chaos wires fault injection into a Server so the chaos tests can attack
// the daemon at its real seams — the worker loop, the journal's fsync, the
// execution path — instead of mocking them. The zero value injects nothing;
// only this package's tests set it (Config.chaos).
type Chaos struct {
	// BeforeRun is called by the flight leader immediately before it
	// executes its job. A hook that panics models a worker dying mid-job
	// (the worker survives, the job fails); a hook that blocks models a
	// wedged worker — crash tests block here and abandon the server to
	// simulate kill -9 with jobs in flight; a hook that sleeps stretches
	// every execution.
	BeforeRun func(jobID string)
	// JournalSync replaces the journal's fsync (journal.Options.SyncHook):
	// return an error to model a failing disk — the server goes unhealthy
	// and stops acknowledging new work — or nil to model a sync quietly
	// dropped by a lying disk. Effective only with Config.JournalSync.
	JournalSync func() error
}
