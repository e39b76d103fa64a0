package jobs

import (
	"testing"

	"repro/client"
)

// Get returns the job registered under id, or nil; for a retained id, a
// stand-in whose Done is closed and whose status is the final one.
func (t *Table) Get(id string) *Job {
	j, fin := t.find(id)
	if fin != nil {
		j = &Job{ID: id, settled: true, final: fin, state: fin.st.State, finished: fin.at[1]}
	}
	return j
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
