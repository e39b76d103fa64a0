package jobs

// Get returns the job registered under id, or nil; for a retained id, a
// stand-in whose Done is closed and whose status is the final one.
func (t *Table) Get(id string) *Job {
	j, fin := t.find(id)
	if fin != nil {
		j = &Job{ID: id, settled: true, final: fin, state: fin.st.State, finished: fin.at[1]}
	}
	return j
}
