package jobs

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/client"
)

// The status encoder. Every route that writes a client.JobStatus — submit,
// batch, watch, status and cancel — appends it here by hand instead of
// through encoding/json, and the bytes are the contract: the body is exactly
// what json.NewEncoder(w).Encode would write for the same value, trailing
// newline included. Fields go out in client.JobStatus tag order under the
// same omitempty rules; times are RFC 3339 with nanoseconds, as
// time.Time.MarshalJSON writes them; a string that needs no escaping is
// copied as is and any other goes through json.Marshal, so escaping (HTML
// characters, control bytes, invalid UTF-8, U+2028/U+2029) cannot drift from
// encoding/json.
//
// Result bytes are spliced in verbatim, where encoding/json would compact and
// HTML-escape them again. That is exact only while a result is compact,
// HTML-escaped json.Marshal output — the invariant this encoder relies on.
// It holds for every result the engine carries: a fresh simulation is
// marshaled with json.Marshal (Job.rawLocked), a store object is written the
// same way and served verbatim, and saccoord relays a worker's bytes, which
// that worker's encoder wrote, untouched. A time outside the years 0–9999,
// which MarshalJSON refuses, cannot reach the encoder either: submission
// bounds a deadline to what a time.Duration holds.
//
// Every other body (errors, health, fleet, workers) stays with WriteJSON.

// maxPooledBody caps the encode buffers kept for reuse, so one huge batch
// response does not pin its buffer for the life of the process.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// writeBody writes the JSON body fill appends, plus json.Encoder's trailing
// newline, with a status code.
func writeBody(w http.ResponseWriter, code int, fill func(b []byte) []byte) {
	bp := bodyPool.Get().(*[]byte)
	b := append(fill((*bp)[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
	if cap(b) <= maxPooledBody {
		*bp = b[:0]
		bodyPool.Put(bp)
	}
}

// appendStatus appends st's JSON encoding.
func appendStatus(b []byte, st *client.JobStatus) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, st.ID)
	b = append(b, `,"state":`...)
	b = appendString(b, st.State)
	b = append(b, `,"benchmark":`...)
	b = appendString(b, st.Benchmark)
	b = append(b, `,"org":`...)
	b = appendString(b, st.Org)
	b = append(b, `,"priority":`...)
	b = appendString(b, st.Priority)
	b = append(b, `,"fidelity":`...)
	b = appendString(b, st.Fidelity)
	if st.Key != "" {
		b = append(b, `,"key":`...)
		b = appendString(b, st.Key)
	}
	if st.Source != "" {
		b = append(b, `,"source":`...)
		b = appendString(b, st.Source)
	}
	if st.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, st.Error)
	}
	if st.QueueAhead != 0 {
		b = append(b, `,"queue_ahead":`...)
		b = strconv.AppendInt(b, int64(st.QueueAhead), 10)
	}
	if st.Cycles != 0 {
		b = append(b, `,"cycles":`...)
		b = strconv.AppendInt(b, st.Cycles, 10)
	}
	b = append(b, `,"submitted_at":`...)
	b = appendTime(b, st.SubmittedAt)
	if st.StartedAt != nil {
		b = append(b, `,"started_at":`...)
		b = appendTime(b, *st.StartedAt)
	}
	if st.FinishedAt != nil {
		b = append(b, `,"finished_at":`...)
		b = appendTime(b, *st.FinishedAt)
	}
	if st.DeadlineAt != nil {
		b = append(b, `,"deadline_at":`...)
		b = appendTime(b, *st.DeadlineAt)
	}
	if len(st.Result) != 0 {
		b = append(b, `,"result":`...)
		b = append(b, st.Result...)
	}
	return append(b, '}')
}

// appendWatch appends a WatchResponse's JSON encoding.
func appendWatch(b []byte, resp *client.WatchResponse) []byte {
	b = append(b, `{"jobs":`...)
	if resp.Jobs == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range resp.Jobs {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStatus(b, &resp.Jobs[i])
		}
		b = append(b, ']')
	}
	if len(resp.Unknown) != 0 {
		b = append(b, `,"unknown":[`...)
		for i, id := range resp.Unknown {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, id)
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

// appendString appends s as a JSON string. Only printable ASCII other than
// the quote, the backslash and the HTML characters is copied directly.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
