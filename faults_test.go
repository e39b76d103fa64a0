package sac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"unicode/utf8"

	"repro/client"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/server"
)

// FuzzFaultPlan feeds arbitrary text to the fault DSL, the one plan encoding,
// which arrives from untrusted HTTP (JobRequest.Faults) and from three CLI
// flags. Parse must never panic. A plan it accepts must round-trip:
// Parse(p.String()) gives the same events and the same Key. A plan it
// rejects must be refused before any cell is keyed: POST /v1/jobs answers
// 400 and the request never resolves, resolving being the only path to
// store.KeyAt. The seeds are every -faults plan the documents show.
func FuzzFaultPlan(f *testing.F) {
	for _, p := range docFaultPlans(f) {
		f.Add(p)
	}
	for _, p := range []string{";", "xchip:0.cw@5-1*0.5", "dram:0.0@100--3", "llc:1.2@0*NaN", "noc:0@1e3"} {
		f.Add(p)
	}
	resolved := false
	tbl := jobs.New(jobs.Config{
		Resolve: func(req client.JobRequest) (jobs.Identity, error) {
			id, err := server.ResolveRequest(req, "")
			resolved = resolved || err == nil
			return id, err
		},
		Admit:   func([]*jobs.Job) error { return errors.New("nothing is admitted here") },
		Execute: func(context.Context, *jobs.Job) jobs.Outcome { return jobs.Outcome{} },
	})
	mux := http.NewServeMux()
	tbl.Mount(mux)

	f.Fuzz(func(t *testing.T, s string) {
		p, err := fault.Parse(s)
		if err == nil {
			q, err := fault.Parse(p.String())
			if err != nil {
				t.Fatalf("Parse(%q) accepted, but its rendering %q is rejected: %v", s, p.String(), err)
			}
			if !reflect.DeepEqual(q.Events, p.Events) || q.Key() != p.Key() {
				t.Fatalf("Parse(%q) does not round-trip through %q:\n got %+v\nwant %+v", s, p.String(), q.Events, p.Events)
			}
			return
		}
		if s == "" || !utf8.ValidString(s) {
			return // no plan at all; JSON would alter the text the daemon sees
		}
		body, err := json.Marshal(client.JobRequest{Benchmark: "RN", Org: "SAC", Faults: s})
		if err != nil {
			t.Fatal(err)
		}
		resolved = false
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest || resolved {
			t.Fatalf("rejected plan %q: POST /v1/jobs answered %d, resolved=%v: %s", s, w.Code, resolved, w.Body.Bytes())
		}
	})
}
