package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/client"
	"repro/internal/stats"
)

// reference is what the status encoder must reproduce byte for byte:
// json.NewEncoder's output for the same value, trailing newline included.
func reference(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json refused %+v: %v", v, err)
	}
	return buf.Bytes()
}

func checkStatus(t testing.TB, name string, st client.JobStatus) {
	t.Helper()
	want := reference(t, st)
	if got := append(client.AppendStatus(nil, &st), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %s\nwant %s", name, got, want)
	}
}

// TestStatusEncodingMatchesEncodingJSON is the status encoder's differential
// test: every omitempty combination, strings that need escaping, zero and
// zoned times, and watch responses, each byte-identical to encoding/json.
// It reflects over client.JobStatus, so a field added there fails here until
// the encoder writes it.
func TestStatusEncodingMatchesEncodingJSON(t *testing.T) {
	at := func(sec, nsec int64, zone *time.Location) *time.Time {
		tm := time.Unix(sec, nsec).In(zone)
		return &tm
	}
	utc := time.UTC
	east := time.FixedZone("east", 5*3600+30*60)
	west := time.FixedZone("west", -8*3600)
	full := client.JobStatus{
		ID: "j0123456789abcdef", State: client.StateDone, Benchmark: "RN", Org: "SAC",
		Fidelity: client.FidelityEstimate, Key: "ab12", Source: client.SourceStore, Error: "boom", QueueAhead: 3, Cycles: 123456,
		SubmittedAt: *at(1760000000, 123456789, utc),
		StartedAt:   at(1760000001, 120000000, utc),
		FinishedAt:  at(1760000002, 0, utc),
		DeadlineAt:  at(1760000003, 1, utc),
		Result:      json.RawMessage(`{"Benchmark":"RN","Cycles":123456}`),
	}

	// Every field, set alone: a field the encoder does not write fails here.
	typ := reflect.TypeOf(client.JobStatus{})
	for i := 0; i < typ.NumField(); i++ {
		var st client.JobStatus
		f := reflect.ValueOf(&st).Elem().Field(i)
		switch v := f.Addr().Interface().(type) {
		case *string:
			*v = "x"
		case *int:
			*v = 7
		case *int64:
			*v = -7
		case *time.Time:
			*v = *at(1, 2, east)
		case **time.Time:
			*v = at(3, 4, west)
		case *json.RawMessage:
			*v = json.RawMessage(`[1,2]`)
		default:
			t.Fatalf("client.JobStatus.%s has type %s the encoder test has no value for", typ.Field(i).Name, f.Type())
		}
		checkStatus(t, "field "+typ.Field(i).Name, st)
	}

	// Every combination of the omitempty fields.
	optional := []func(dst *client.JobStatus){
		func(d *client.JobStatus) { d.Key = full.Key },
		func(d *client.JobStatus) { d.Source = full.Source },
		func(d *client.JobStatus) { d.Error = full.Error },
		func(d *client.JobStatus) { d.QueueAhead = full.QueueAhead },
		func(d *client.JobStatus) { d.Cycles = full.Cycles },
		func(d *client.JobStatus) { d.StartedAt = full.StartedAt },
		func(d *client.JobStatus) { d.FinishedAt = full.FinishedAt },
		func(d *client.JobStatus) { d.DeadlineAt = full.DeadlineAt },
		func(d *client.JobStatus) { d.Result = full.Result },
	}
	for mask := 0; mask < 1<<len(optional); mask++ {
		st := client.JobStatus{ID: full.ID, State: full.State, Benchmark: full.Benchmark, Org: full.Org,
			Fidelity: full.Fidelity, SubmittedAt: full.SubmittedAt}
		for i, set := range optional {
			if mask&(1<<i) != 0 {
				set(&st)
			}
		}
		checkStatus(t, fmt.Sprintf("omitempty mask %#x", mask), st)
	}

	for _, c := range []struct {
		name string
		edit func(st *client.JobStatus)
	}{
		{"quotes and backslashes", func(st *client.JobStatus) { st.Error = `bad "timeout_ms" at C:\path` }},
		{"HTML characters", func(st *client.JobStatus) { st.Error = "<script>a && b</script>" }},
		{"control bytes", func(st *client.JobStatus) { st.Error = "tab\tnl\nnul\x00unit\x1fdel\x7f" }},
		{"invalid UTF-8", func(st *client.JobStatus) { st.Error = "bad \xff\xfe byte \xc3" }},
		{"line separators", func(st *client.JobStatus) { st.Error = "a\u2028b\u2029c" }},
		{"non-ASCII", func(st *client.JobStatus) { st.Benchmark, st.Error = "ÜNÏ", "délai dépassé 🕐" }},
		{"escapes in every string", func(st *client.JobStatus) {
			st.ID, st.State, st.Benchmark, st.Org = "<", ">", "&", `"`
			st.Fidelity, st.Key, st.Source = `\`, "\n", "\u2028\xff"
		}},
		{"zero SubmittedAt", func(st *client.JobStatus) { st.SubmittedAt = time.Time{} }},
		{"non-UTC zones", func(st *client.JobStatus) {
			st.SubmittedAt = *at(1760000000, 5, east)
			st.StartedAt, st.FinishedAt, st.DeadlineAt = at(1760000001, 0, west), at(1760000002, 100, east), at(1760000003, 999999999, west)
		}},
		{"local zone with monotonic reading", func(st *client.JobStatus) {
			now := time.Now()
			st.SubmittedAt, st.DeadlineAt = now, &now
		}},
		{"deadline at the largest timeout", func(st *client.JobStatus) {
			dl := time.Now().Add(time.Duration(1<<63 - 1))
			st.DeadlineAt = &dl
		}},
		{"negative counts", func(st *client.JobStatus) { st.QueueAhead, st.Cycles = -1, -1<<63 }},
		{"empty non-nil result", func(st *client.JobStatus) { st.Result = json.RawMessage{} }},
		{"null result", func(st *client.JobStatus) { st.Result = json.RawMessage(`null`) }},
		{"HTML-escaped result", func(st *client.JobStatus) { st.Result = json.RawMessage(`{"Benchmark":"\u003ca\u0026b\u003e"}`) }},
	} {
		st := full
		c.edit(&st)
		checkStatus(t, c.name, st)
	}

	sts := []client.JobStatus{full, {ID: "j2", State: client.StateQueued, QueueAhead: 9, SubmittedAt: full.SubmittedAt}}
	for _, resp := range []client.WatchResponse{
		{},
		{Jobs: []client.JobStatus{}},
		{Jobs: sts},
		{Unknown: []string{"jnope"}},
		{Jobs: sts[:1], Unknown: []string{"a", "<b>", "c\xff", ""}},
	} {
		want := reference(t, resp)
		if got := append(client.AppendWatch(nil, &resp), '\n'); !bytes.Equal(got, want) {
			t.Fatalf("watch %+v:\n got %s\nwant %s", resp, got, want)
		}
	}
}

// TestResultSplicePrecondition pins the invariant the encoder's verbatim
// result splice relies on: a fresh simulation's result, marshaled by the
// tracked job it settled, is already what encoding/json would make of it
// — compact and HTML-escaped — even when its strings need escaping.
func TestResultSplicePrecondition(t *testing.T) {
	tb := queuing(Config{
		Resolve: func(client.JobRequest) (*Identity, error) { return &Identity{}, nil },
		Execute: func(context.Context, *Job) Outcome {
			return Outcome{Run: &stats.Run{Benchmark: "<a&b>", Org: "SAC\u2028", Cycles: 42}}
		},
	})
	st0 := submit(t, tb, client.JobRequest{})
	tb.RunDirect(context.Background(), tb.Get(st0.ID))
	st0, _ = tb.Status(st0.ID)
	raw := st0.Result
	want, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("marshaled result is not in encoding/json's canonical form:\n got %s\nwant %s", raw, want)
	}
	// The splice is not a re-encoder: bytes outside the invariant go out
	// as they are, so the precondition is what keeps the wire exact.
	st := client.JobStatus{Result: json.RawMessage(`{ "a" : "<" }`)}
	if got := client.AppendStatus(nil, &st); bytes.Equal(append(got, '\n'), reference(t, st)) {
		t.Fatal("a non-canonical result matched encoding/json; the splice test above proves nothing")
	}
}

// FuzzStatusEncoding builds statuses from fuzzed strings, counts and times
// and requires the status encoder to match encoding/json byte for byte.
func FuzzStatusEncoding(f *testing.F) {
	f.Add("j1", "done", "<&>", "err \"x\"\n\xff\u2028", int64(3), int64(-9), int64(1760000000123456789), int32(19800), uint8(0xff), []byte(`{"Cycles":1}`))
	f.Add("", "", "", "", int64(0), int64(0), int64(0), int32(0), uint8(0), []byte(nil))
	f.Add("\x00", "queued", "RN", "", int64(-1), int64(1<<62), int64(-62135596800000000), int32(-43200), uint8(0x15), []byte(`"\u003c"`))
	f.Fuzz(func(t *testing.T, id, state, bench, errText string, ahead, cycles, unixNano int64, offset int32, present uint8, result []byte) {
		tm := time.Unix(0, unixNano).In(time.FixedZone("z", int(offset%(24*3600))))
		st := client.JobStatus{
			ID: id, State: state, Benchmark: bench, Org: bench + id, Fidelity: errText,
			Key: id, Source: state, Error: errText, QueueAhead: int(ahead), Cycles: cycles, SubmittedAt: tm,
		}
		if present&1 != 0 {
			st.StartedAt = &tm
		}
		if present&2 != 0 {
			st.FinishedAt = &tm
		}
		if present&4 != 0 {
			st.DeadlineAt = &tm
		}
		// Only a result in canonical form is spliceable (see client/codec.go).
		if present&8 != 0 && json.Valid(result) {
			canon, err := json.Marshal(json.RawMessage(result))
			if err != nil {
				t.Fatal(err)
			}
			st.Result = canon
		}
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(st); err != nil {
			// A time MarshalJSON refuses (year past 9999, zone past ±23h)
			// never reaches the encoder.
			t.Skip(err)
		}
		if got := append(client.AppendStatus(nil, &st), '\n'); !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("\n got %s\nwant %s", got, buf.Bytes())
		}
		resp := client.WatchResponse{Jobs: []client.JobStatus{st}, Unknown: []string{id, errText}}
		if got := append(client.AppendWatch(nil, &resp), '\n'); !bytes.Equal(got, reference(t, resp)) {
			t.Fatalf("watch:\n got %s\nwant %s", got, reference(t, resp))
		}
	})
}
