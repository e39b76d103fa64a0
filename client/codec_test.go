package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/gpu"
)

// leaves returns every settable leaf under v, a struct: the fields the
// codec writes one value for. A pointer to a struct is allocated and walked
// (alloc records it, so a caller can put back the nil it found); a time is
// one leaf.
func leaves(v reflect.Value, alloc *[]reflect.Value) []reflect.Value {
	var out []reflect.Value
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch {
		case f.Type() == reflect.TypeOf(time.Time{}):
			out = append(out, f)
		case f.Kind() == reflect.Struct:
			out = append(out, leaves(f, alloc)...)
		case f.Kind() == reflect.Pointer && f.Type().Elem().Kind() == reflect.Struct &&
			f.Type().Elem() != reflect.TypeOf(time.Time{}):
			f.Set(reflect.New(f.Type().Elem()))
			*alloc = append(*alloc, f)
			out = append(out, leaves(f.Elem(), alloc)...)
		default:
			out = append(out, f)
		}
	}
	return out
}

// setDistinct gives leaf a non-zero value derived from n.
func setDistinct(t *testing.T, leaf reflect.Value, n int) {
	t.Helper()
	switch p := leaf.Addr().Interface().(type) {
	case *time.Time:
		*p = time.Unix(int64(1760000000+n), int64(n)).UTC()
	case **time.Time:
		tm := time.Unix(int64(1760000000+n), int64(n)).UTC()
		*p = &tm
	case *json.RawMessage:
		*p = json.RawMessage(fmt.Sprintf(`{"n":[%d]}`, n))
	default:
		switch leaf.Kind() {
		case reflect.String:
			leaf.SetString(fmt.Sprintf("s%d", n))
		case reflect.Int, reflect.Int64:
			leaf.SetInt(int64(n) * 1001)
		case reflect.Uint8:
			leaf.SetUint(uint64(n%255 + 1))
		case reflect.Bool:
			leaf.SetBool(true)
		case reflect.Float64:
			leaf.SetFloat(float64(n) + 0.375)
		default:
			t.Fatalf("%s: the codec test has no value for kind %s", leaf.Type(), leaf.Kind())
		}
	}
}

// TestCodecCoversEveryField walks JobRequest (its config, the config's
// geometry and SAC options included) and JobStatus by reflection. With every
// leaf set to a distinct non-zero value, and again with each leaf set alone,
// the hand encoder must write json.Marshal's bytes and the hand decoder must
// read them back, inside the subset, to the same value. A field added to any
// of these types fails here until the codec writes and reads it; a dropped
// config field would be a wrong cache hit.
func TestCodecCoversEveryField(t *testing.T) {
	check := func(name string, v any, enc func() []byte, fresh any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc(); !bytes.Equal(got, want) {
			t.Fatalf("%s: encoding differs from encoding/json:\n got %s\nwant %s", name, got, want)
		}
		if !decodeFast(want, fresh) {
			t.Fatalf("%s: %s left the hand path", name, want)
		}
		if got := reflect.ValueOf(fresh).Elem().Interface(); !reflect.DeepEqual(got, reflect.ValueOf(v).Elem().Interface()) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, v)
		}
	}
	for _, c := range []struct {
		name string
		new  func() any
		enc  func(v any) []byte
	}{
		{"JobRequest", func() any { return new(JobRequest) }, func(v any) []byte { return AppendRequest(nil, v.(*JobRequest)) }},
		{"JobStatus", func() any { return new(JobStatus) }, func(v any) []byte { return AppendStatus(nil, v.(*JobStatus)) }},
	} {
		all := c.new()
		var allocs []reflect.Value
		ls := leaves(reflect.ValueOf(all).Elem(), &allocs)
		for i, l := range ls {
			setDistinct(t, l, i+1)
		}
		check(c.name+" with every field", all, func() []byte { return c.enc(all) }, c.new())

		for k := range ls {
			one := c.new()
			var allocs []reflect.Value
			l := leaves(reflect.ValueOf(one).Elem(), &allocs)
			setDistinct(t, l[k], k+1)
			// Only the pointer above the leaf stays allocated.
			for _, p := range allocs {
				if reflect.ValueOf(p.Interface()).Elem().IsZero() {
					p.SetZero()
				}
			}
			check(fmt.Sprintf("%s with only leaf %d", c.name, k), one, func() []byte { return c.enc(one) }, c.new())
		}
	}
}

// TestClientBodiesTakeTheHandPath: the bodies the client writes, and
// json.Marshal's encoding of the same requests, decode by hand. A silent
// fallback to encoding/json would undo the codec's gain with every test
// still green.
func TestClientBodiesTakeTheHandPath(t *testing.T) {
	cfg := gpu.ScaledConfig()
	reqs := []JobRequest{
		{Benchmark: "BP", Org: "SAC", Config: &cfg, Fidelity: FidelityEstimate},
		{Benchmark: "RN", Org: "memory-side", Preset: "mcm", Faults: "xchip:0.cw@0-5000*0.5", TimeoutMS: 30000},
	}
	bodies := make(chan []byte, 2)
	c, _ := stubDaemon(t, func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		bodies <- b
		resp := BatchResponse{}
		for range reqs {
			resp.Jobs = append(resp.Jobs, BatchItem{Status: &JobStatus{ID: "j", State: StateQueued}})
		}
		json.NewEncoder(w).Encode(resp)
	})
	if _, err := c.SubmitBatch(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitBatch(context.Background(), reqs[:1]); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]JobRequest{reqs, reqs[:1]} {
		body := <-bodies
		var got BatchRequest
		if !decodeFast(body, &got) {
			t.Fatalf("SubmitBatch's body left the hand path: %s", body)
		}
		if !reflect.DeepEqual(got.Jobs, want) {
			t.Fatalf("SubmitBatch's body decoded to %+v, want %+v", got.Jobs, want)
		}
	}
	for _, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var got JobRequest
		if !decodeFast(body, &got) || !reflect.DeepEqual(got, req) {
			t.Fatalf("json.Marshal's %s left the hand path or decoded to %+v", body, got)
		}
	}
}

// FuzzStatusDecode is the client decoder's differential test: for any
// bytes, Unmarshal into a JobStatus, a BatchResponse or a WatchResponse
// fails exactly when json.Unmarshal does and otherwise yields the same
// value.
func FuzzStatusDecode(f *testing.F) {
	st := JobStatus{ID: "j1", State: StateDone, Benchmark: "BP", Org: "SAC",
		Fidelity: FidelityEstimate, Key: "ab12", Source: SourceStore, Cycles: 42,
		SubmittedAt: time.Unix(1760000000, 5).UTC(), Result: json.RawMessage(`{"Cycles":42,"Org":"\u003cSAC\u003e"}`)}
	at := time.Unix(1760000001, 0).In(time.FixedZone("", 3600))
	st.StartedAt, st.FinishedAt = &at, &at
	for _, v := range []any{st, BatchResponse{Jobs: []BatchItem{{Status: &st}, {Error: "bad"}}},
		WatchResponse{Jobs: []JobStatus{st}, Unknown: []string{"jx"}}, WatchResponse{}} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		for kind := range uint8(3) {
			f.Add(kind, b)
		}
	}
	f.Add(uint8(0), []byte(`{"id":"a","ID":"b","result":null,"queue_ahead":1e2}`))
	f.Add(uint8(0), []byte(`{"id":"j1","benchmark":"R\u004e","error":"a\\b"}`))
	f.Add(uint8(1), []byte(`{"jobs":[{"status":{"id":"a"},"status":{"state":"done"}}],"jobs":[]}`))
	f.Add(uint8(2), []byte(`{"jobs":null,"unknown":["a"],"unknown":[]} `))
	f.Add(uint8(0), []byte(`{"submitted_at":"2026-10-16T06:00:00+02:00","cycles":-9223372036854775808,"result":[[[{"a":"\ud800"}]]]}`))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var got, want any
		switch kind % 3 {
		case 0:
			got, want = new(JobStatus), new(JobStatus)
		case 1:
			got, want = new(BatchResponse), new(BatchResponse)
		case 2:
			got, want = new(WatchResponse), new(WatchResponse)
		}
		err, wantErr := Unmarshal(data, got), json.Unmarshal(data, want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q into %T: error %v, encoding/json's %v", data, got, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q into %T:\n got %+v\nwant %+v", data, got, got, want)
		}
	})
}
