package sac_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
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
// Parse(p.String()) gives the same events and the same Key. Its events
// written in reverse must give the same Key and the same replay. A plan it
// rejects must be refused before any cell is keyed: POST /v1/jobs:batch
// answers 400 and the request never resolves, resolving being the only path
// to store.KeyAt. The seeds are every -faults plan the documents show, five
// malformed plans, and two well-formed events on domains the model does not
// have (LLC slices, NoC ports), which must be refused like any other.
func FuzzFaultPlan(f *testing.F) {
	for _, p := range docFlagArgs(f, faultsArgRe) {
		f.Add(p)
	}
	for _, p := range []string{";", "xchip:0.cw@5-1*0.5", "dram:0.0@100--3", "dram:1.0@0*NaN", "xchip:0@1e3"} {
		f.Add(p)
	}
	for _, p := range []string{"llc:0.1@0*0.5", "noc:0.0@0*0"} {
		if _, err := fault.Parse(p); err == nil {
			f.Fatalf("Parse(%q) accepted a domain the model does not have", p)
		}
		f.Add(p)
	}
	resolved := false
	tbl := jobs.New(jobs.Config{
		Resolve: func(req client.JobRequest) (*jobs.Identity, error) {
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
			rev := make([]string, len(p.Events))
			for i, e := range p.Events {
				rev[len(rev)-1-i] = e.String()
			}
			r, err := fault.Parse(strings.Join(rev, ";"))
			if err != nil || r.Key() != p.Key() || !reflect.DeepEqual(replay(r), replay(p)) {
				t.Fatalf("Parse(%q) reversed is another plan (%v): %q vs %q", s, err, r.Key(), p.Key())
			}
			return
		}
		if s == "" || !utf8.ValidString(s) {
			return // no plan at all; JSON would alter the text the daemon sees
		}
		body, err := json.Marshal(client.BatchRequest{Jobs: []client.JobRequest{{Benchmark: "RN", Org: "SAC", Faults: s}}})
		if err != nil {
			t.Fatal(err)
		}
		resolved = false
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs:batch", bytes.NewReader(body)))
		if w.Code != http.StatusBadRequest || resolved {
			t.Fatalf("rejected plan %q: POST /v1/jobs:batch answered %d, resolved=%v: %s", s, w.Code, resolved, w.Body.Bytes())
		}
	})
}

// replay returns every batch of changes an injector for p reports, edge by
// edge.
func replay(p *fault.Plan) [][]fault.Change {
	in := fault.NewInjector(p)
	var all [][]fault.Change
	for now := int64(0); now >= 0; now = in.NextEdge(now) {
		all = append(all, in.Advance(now))
	}
	return all
}
