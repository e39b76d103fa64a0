package client

import (
	"bytes"
	"encoding/json"
	"strconv"
	"time"

	"repro/internal/gpu"
	"repro/internal/wire"
)

// The jobs wire codec. The per-cell bodies — requests, statuses, batch and
// watch responses — are written and read by hand, and encoding/json is the
// reference each is pinned to:
//
//   - AppendRequest and AppendStatus write exactly what json.Marshal
//     writes for the same value (a daemon adds json.Encoder's newline);
//   - Unmarshal reads JobRequest, BatchRequest, JobStatus, BatchResponse and
//     WatchResponse by hand while the input stays inside internal/wire's
//     canonical subset, which is everything these encoders write, and
//     otherwise hands the same bytes to json.Unmarshal, or for a request to
//     a json.Decoder that disallows unknown fields. Either way the result
//     (value or error) is that reference's.
//
// Status strings are copied as they are when they need no escaping and
// otherwise go through json.Marshal; times are RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON writes them. A result is spliced in verbatim where
// encoding/json would compact and HTML-escape it again. That is exact only
// while a result is compact, HTML-escaped json.Marshal output, which holds
// for every result the engine carries: a fresh simulation is marshaled with
// json.Marshal, a store object is written the same way and served verbatim,
// and saccoord relays a worker's bytes untouched. A time outside the years
// 0–9999, which MarshalJSON refuses, cannot reach the encoder either:
// submission bounds a deadline to what a time.Duration holds.

// Unmarshal decodes data into v exactly as json.Unmarshal does, by hand when
// v is one of the jobs wire types and data stays inside the canonical
// subset. v must point to a zero value. A JobRequest or BatchRequest naming a
// field its type lacks is an error: answering it for the model the known
// fields describe would answer a question it did not ask.
func Unmarshal(data []byte, v any) error {
	if decodeFast(data, v) {
		return nil
	}
	switch v.(type) {
	case *JobRequest, *BatchRequest:
		if json.Valid(data) { // one value: the decoder reads all of data
			d := json.NewDecoder(bytes.NewReader(data))
			d.DisallowUnknownFields()
			return d.Decode(v)
		}
	}
	return json.Unmarshal(data, v)
}

// decodeFast decodes data by hand and reports whether it could; when it
// could not, v is zero again.
func decodeFast(data []byte, v any) bool {
	switch v := v.(type) {
	case *JobRequest:
		return decodeWhole(data, v, decodeRequest)
	case *BatchRequest:
		return decodeWhole(data, v, decodeBatchRequest)
	case *JobStatus:
		return decodeWhole(data, v, decodeStatus)
	case *BatchResponse:
		return decodeWhole(data, v, decodeBatchResponse)
	case *WatchResponse:
		return decodeWhole(data, v, decodeWatchResponse)
	}
	return false
}

// decodeWhole decodes all of data into v with dec, or zeroes v.
func decodeWhole[T any](data []byte, v *T, dec func(*wire.Reader, *T)) bool {
	r := wire.NewReader(data)
	if dec(&r, v); r.End() {
		return true
	}
	var zero T
	*v = zero
	return false
}

// AppendRequest appends req's JSON encoding.
func AppendRequest(b []byte, req *JobRequest) []byte {
	b = wire.AppendString(append(b, `{"benchmark":`...), req.Benchmark)
	b = wire.AppendString(append(b, `,"org":`...), req.Org)
	if req.Preset != "" {
		b = wire.AppendString(append(b, `,"preset":`...), req.Preset)
	}
	if req.Config != nil {
		b = req.Config.AppendJSON(append(b, `,"config":`...))
	}
	if req.Faults != "" {
		b = wire.AppendString(append(b, `,"faults":`...), req.Faults)
	}
	if req.Fidelity != "" {
		b = wire.AppendString(append(b, `,"fidelity":`...), req.Fidelity)
	}
	if req.TimeoutMS != 0 {
		b = strconv.AppendInt(append(b, `,"timeout_ms":`...), req.TimeoutMS, 10)
	}
	return append(b, '}')
}

// appendBatchRequest appends a BatchRequest's JSON encoding.
func appendBatchRequest(b []byte, reqs []JobRequest) []byte {
	if reqs == nil {
		return append(b, `{"jobs":null}`...)
	}
	b = append(b, `{"jobs":[`...)
	for i := range reqs {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendRequest(b, &reqs[i])
	}
	return append(b, "]}"...)
}

// AppendStatus appends st's JSON encoding.
func AppendStatus(b []byte, st *JobStatus) []byte {
	b = wire.AppendString(append(b, `{"id":`...), st.ID)
	b = wire.AppendString(append(b, `,"state":`...), st.State)
	b = wire.AppendString(append(b, `,"benchmark":`...), st.Benchmark)
	b = wire.AppendString(append(b, `,"org":`...), st.Org)
	b = wire.AppendString(append(b, `,"fidelity":`...), st.Fidelity)
	if st.Key != "" {
		b = wire.AppendString(append(b, `,"key":`...), st.Key)
	}
	if st.Source != "" {
		b = wire.AppendString(append(b, `,"source":`...), st.Source)
	}
	if st.Error != "" {
		b = wire.AppendString(append(b, `,"error":`...), st.Error)
	}
	if st.QueueAhead != 0 {
		b = strconv.AppendInt(append(b, `,"queue_ahead":`...), int64(st.QueueAhead), 10)
	}
	if st.Cycles != 0 {
		b = strconv.AppendInt(append(b, `,"cycles":`...), st.Cycles, 10)
	}
	b = appendTime(append(b, `,"submitted_at":`...), st.SubmittedAt)
	if st.StartedAt != nil {
		b = appendTime(append(b, `,"started_at":`...), *st.StartedAt)
	}
	if st.FinishedAt != nil {
		b = appendTime(append(b, `,"finished_at":`...), *st.FinishedAt)
	}
	if st.DeadlineAt != nil {
		b = appendTime(append(b, `,"deadline_at":`...), *st.DeadlineAt)
	}
	if len(st.Result) != 0 {
		b = append(append(b, `,"result":`...), st.Result...)
	}
	return append(b, '}')
}

// AppendWatch appends a WatchResponse's JSON encoding.
func AppendWatch(b []byte, resp *WatchResponse) []byte {
	b = append(b, `{"jobs":`...)
	if resp.Jobs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Jobs {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendStatus(b, &resp.Jobs[i])
		}
		b = append(b, ']')
	}
	if len(resp.Unknown) != 0 {
		b = append(b, `,"unknown":[`...)
		for i, id := range resp.Unknown {
			if i > 0 {
				b = append(b, ',')
			}
			b = wire.AppendString(b, id)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// The decoders below read one value each, in place, the way json.Unmarshal
// fills a struct: members absent from the input keep their values and a
// repeated member keeps its last value. A member name the type does not
// spell exactly (encoding/json also matches other casings), null for a
// string, number, bool or time, and a repeated array of requests or
// statuses, whose elements encoding/json would merge, all leave the subset.

func decodeRequest(r *wire.Reader, req *JobRequest) {
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "benchmark":
			req.Benchmark = string(r.Str())
		case "org":
			req.Org = intern(r.Str())
		case "preset":
			req.Preset = intern(r.Str())
		case "config":
			// A repeated config decodes into the first, as under encoding/json.
			if req.Config == nil {
				req.Config = new(gpu.Config)
			}
			req.Config.DecodeJSON(r)
		case "faults":
			req.Faults = string(r.Str())
		case "fidelity":
			req.Fidelity = intern(r.Str())
		case "timeout_ms":
			req.TimeoutMS = r.Int64()
		default:
			r.Fail()
		}
	}
}

func decodeBatchRequest(r *wire.Reader, breq *BatchRequest) {
	r.Open('{')
	for r.Next('}') {
		if string(r.Key()) != "jobs" || breq.Jobs != nil {
			r.Fail()
			return
		}
		if r.Null() {
			continue
		}
		breq.Jobs = []JobRequest{}
		r.Open('[')
		for r.Next(']') {
			breq.Jobs = append(breq.Jobs, JobRequest{})
			decodeRequest(r, &breq.Jobs[len(breq.Jobs)-1])
		}
	}
}

func decodeStatus(r *wire.Reader, st *JobStatus) {
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "id":
			st.ID = string(r.Str())
		case "state":
			st.State = intern(r.Str())
		case "benchmark":
			st.Benchmark = string(r.Str())
		case "org":
			st.Org = intern(r.Str())
		case "fidelity":
			st.Fidelity = intern(r.Str())
		case "key":
			st.Key = string(r.Str())
		case "source":
			st.Source = intern(r.Str())
		case "error":
			st.Error = string(r.Str())
		case "queue_ahead":
			st.QueueAhead = r.Int()
		case "cycles":
			st.Cycles = r.Int64()
		case "submitted_at":
			decodeTime(r, &st.SubmittedAt)
		case "started_at":
			st.StartedAt = decodeTimePtr(r, st.StartedAt)
		case "finished_at":
			st.FinishedAt = decodeTimePtr(r, st.FinishedAt)
		case "deadline_at":
			st.DeadlineAt = decodeTimePtr(r, st.DeadlineAt)
		case "result":
			// json.RawMessage's UnmarshalJSON: one copy of the value's bytes.
			st.Result = append(st.Result[:0], r.Raw()...)
		default:
			r.Fail()
		}
	}
}

// decodeTime reads a time as time.Time.UnmarshalJSON does, which is
// UnmarshalText inside the quotes.
func decodeTime(r *wire.Reader, t *time.Time) {
	if s := r.Str(); !r.Off() && t.UnmarshalText(s) != nil {
		r.Fail()
	}
}

// decodeTimePtr decodes into t, allocating it if nil, as encoding/json does.
func decodeTimePtr(r *wire.Reader, t *time.Time) *time.Time {
	if t == nil {
		t = new(time.Time)
	}
	decodeTime(r, t)
	return t
}

func decodeBatchResponse(r *wire.Reader, resp *BatchResponse) {
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "error":
			resp.Error = string(r.Str())
		case "jobs":
			if resp.Jobs != nil {
				r.Fail()
				return
			}
			if !r.Null() {
				resp.Jobs = decodeBatchItems(r)
			}
		default:
			r.Fail()
		}
	}
}

// decodeBatchItems reads a batch response's items. A repeated status
// decodes into the first, as under encoding/json.
func decodeBatchItems(r *wire.Reader) []BatchItem {
	items := []BatchItem{}
	r.Open('[')
	for r.Next(']') {
		var it BatchItem
		r.Open('{')
		for r.Next('}') {
			switch string(r.Key()) {
			case "status":
				if r.Null() {
					it.Status = nil
					continue
				}
				if it.Status == nil {
					it.Status = new(JobStatus)
				}
				decodeStatus(r, it.Status)
			case "error":
				it.Error = string(r.Str())
			default:
				r.Fail()
			}
		}
		items = append(items, it)
	}
	return items
}

func decodeWatchResponse(r *wire.Reader, resp *WatchResponse) {
	r.Open('{')
	for r.Next('}') {
		switch string(r.Key()) {
		case "jobs":
			if resp.Jobs != nil {
				r.Fail()
				return
			}
			if r.Null() {
				continue
			}
			resp.Jobs = []JobStatus{}
			r.Open('[')
			for r.Next(']') {
				resp.Jobs = append(resp.Jobs, JobStatus{})
				decodeStatus(r, &resp.Jobs[len(resp.Jobs)-1])
			}
		case "unknown":
			// A repeated string array replaces the first whole, as it does
			// under encoding/json.
			resp.Unknown = nil
			if r.Null() {
				continue
			}
			resp.Unknown = []string{}
			r.Open('[')
			for r.Next(']') {
				resp.Unknown = append(resp.Unknown, string(r.Str()))
			}
		default:
			r.Fail()
		}
	}
}

// vocabulary is the wire's fixed strings, which decode without allocating.
var vocabulary = map[string]string{}

func init() {
	for _, s := range []string{
		StateQueued, StateRunning, StateDone, StateFailed, StateExpired, StateCanceled, StateRequeued,
		SourceSim, SourceStore, SourceDedup, SourceMemo,
		FidelityEstimate, FidelityExact, "SAC", "memory-side", "SM-side", "static", "dynamic",
	} {
		vocabulary[s] = s
	}
}

func intern(b []byte) string {
	if s, ok := vocabulary[string(b)]; ok {
		return s
	}
	return string(b)
}
