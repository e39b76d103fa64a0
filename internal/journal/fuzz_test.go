package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// liveView is a LiveJob with its request decoded: compaction re-marshals
// Req, which may re-space and re-escape it but never changes its value.
type liveView struct {
	ID       string
	Req      any
	Deadline int64
	Started  bool
}

func viewLive(t *testing.T, live []LiveJob) []liveView {
	t.Helper()
	out := make([]liveView, len(live))
	for i, lj := range live {
		out[i] = liveView{ID: lj.ID, Deadline: lj.Deadline, Started: lj.Started}
		if len(lj.Req) > 0 {
			if err := json.Unmarshal(lj.Req, &out[i].Req); err != nil {
				t.Fatalf("live job %q carries an undecodable request %q: %v", lj.ID, lj.Req, err)
			}
		}
	}
	return out
}

// FuzzJournalReplay plants arbitrary bytes as the journal file and opens it.
// The file is whatever the previous life's crash left, so replay must never
// panic or fail; every line is either a valid record or counted in
// Replay.Corrupt; no live job is nameless; and the file Open leaves behind
// replays clean, to the same live set.
func FuzzJournalReplay(f *testing.F) {
	var clean []byte
	for _, rec := range []Record{
		{Op: OpAccept, ID: "a", Req: json.RawMessage(`{"benchmark":"BP"}`), Deadline: 1700000000000},
		{Op: OpAccept, ID: "b", Req: json.RawMessage(`{"benchmark":"RN"}`)},
		{Op: OpStart, ID: "a"},
		{Op: OpAccept, ID: "c"},
		{Op: OpDone, ID: "b", State: "done"},
		{Op: OpMark, State: MarkShutdown},
	} {
		line, err := encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, line...)
	}
	flipped := bytes.Replace(clean, []byte(`"RN"`), []byte(`"RM"`), 1)
	if bytes.Equal(flipped, clean) {
		f.Fatal("seed setup: payload byte to flip not found")
	}
	f.Add(clean)
	f.Add(clean[:len(clean)/2]) // truncated mid-record
	f.Add(flipped)

	path := filepath.Join(f.TempDir(), "journal.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open failed on %q: %v", data, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Count(data, []byte{'\n'})
		if len(data) > 0 && data[len(data)-1] != '\n' {
			lines++ // the torn tail
		}
		if rep.Records+rep.Corrupt != lines {
			t.Fatalf("%d lines, but %d records + %d corrupt: %q", lines, rep.Records, rep.Corrupt, data)
		}
		for _, lj := range rep.Live {
			if lj.ID == "" {
				t.Fatalf("live job with an empty ID: %q", data)
			}
		}

		j, again, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("second Open failed on %q: %v", data, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if again.Corrupt != 0 || again.Compacted || again.Records != len(rep.Live) {
			t.Fatalf("the file Open left is not the live set: %d records, %d corrupt, compacted %v, want %d live: %q",
				again.Records, again.Corrupt, again.Compacted, len(rep.Live), data)
		}
		if want, got := viewLive(t, rep.Live), viewLive(t, again.Live); !reflect.DeepEqual(got, want) {
			t.Fatalf("live set changed across a reopen:\nfirst  %+v\nsecond %+v\ninput %q", want, got, data)
		}
	})
}
