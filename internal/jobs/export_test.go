package jobs

import (
	"testing"

	"repro/client"
)

// Get returns the job tracked under id, or nil; for a retained id, a
// stand-in whose Done is closed and whose status is the final one.
func (t *Table) Get(id string) *Job {
	j, fin := t.find(id)
	if fin != nil {
		j = &Job{ID: id, settled: true, final: fin, state: fin.st.State, finished: fin.at[1]}
	}
	return j
}

// queuing returns a table over cfg whose Admit tracks every job and leaves
// it queued, as a daemon does with the jobs it hands to a worker: nothing
// runs them until the test does.
func queuing(cfg Config) *Table {
	var tb *Table
	cfg.Admit = func(batch []*Job) error {
		tb.Track(batch)
		return nil
	}
	tb = New(cfg)
	return tb
}

// submit admits req as a batch of one and returns its status.
func submit(t testing.TB, tb *Table, req client.JobRequest) client.JobStatus {
	t.Helper()
	sts, itemErrs, err := tb.SubmitBatch([]client.JobRequest{req})
	if err != nil || itemErrs != nil {
		t.Fatalf("submit %+v: %v %q", req, err, itemErrs)
	}
	return sts[0]
}
