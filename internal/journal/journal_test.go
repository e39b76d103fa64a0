package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func openFresh(t *testing.T, opt Options) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, rep, err := Open(path, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Live) != 0 || rep.Records != 0 || rep.Corrupt != 0 {
		t.Fatalf("fresh journal replay %+v, want empty", rep)
	}
	return j, path
}

func accept(id string) Record {
	return Record{Op: OpAccept, ID: id, Req: json.RawMessage(fmt.Sprintf(`{"benchmark":%q}`, id))}
}

// olderJournal is a journal as sacd wrote it while it still journaled start
// records: a start line per executed job, and a compacted accept of a job
// that was mid-run at the rewrite, marked "state":"started".
func olderJournal(tb testing.TB) []byte {
	tb.Helper()
	started := accept("j0")
	started.State = "started"
	var b []byte
	for _, rec := range []Record{
		started,
		accept("j1"),
		accept("j2"),
		{Op: "start", ID: "j1"},
		{Op: OpDone, ID: "j1", State: "done"},
		accept("j3"),
		{Op: "start", ID: "j3"},
	} {
		line, err := encode(rec)
		if err != nil {
			tb.Fatal(err)
		}
		b = append(b, line...)
	}
	return b
}

func TestReplayLiveSet(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	if err := os.WriteFile(path, olderJournal(t), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 7 || rep.Corrupt != 0 {
		t.Fatalf("replay read %d records, %d corrupt; want 7, 0", rep.Records, rep.Corrupt)
	}
	var ids []string
	for _, lj := range rep.Live {
		ids = append(ids, lj.ID)
	}
	if strings.Join(ids, " ") != "j0 j2 j3" {
		t.Fatalf("live set %v, want [j0 j2 j3] in accept order", ids)
	}
	if string(rep.Live[1].Req) != `{"benchmark":"j2"}` {
		t.Fatalf("request payload lost: %s", rep.Live[1].Req)
	}
	if rep.CleanShutdown {
		t.Fatal("no shutdown mark was written but replay reports a clean shutdown")
	}
	// Open compacted 7 records down to the 3 live ones, which the journal
	// now holds.
	if !rep.Compacted || j.Records() != 3 || j.Live() != 3 || !j.Holds("j0") || j.Holds("j1") {
		t.Fatalf("compacted=%v records=%d live=%d, want true/3/3 holding j0, not j1",
			rep.Compacted, j.Records(), j.Live())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, again, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Compacted || !reflect.DeepEqual(again.Live, rep.Live) {
		t.Fatalf("compacted file replays to %+v, want %+v", again.Live, rep.Live)
	}
}

func TestCleanShutdownMark(t *testing.T) {
	j, path := openFresh(t, Options{})
	if err := j.Append(accept("j1")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDone, ID: "j1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpMark, State: MarkShutdown}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !rep.CleanShutdown || len(rep.Live) != 0 {
		t.Fatalf("replay %+v, want clean shutdown with no live jobs", rep)
	}
}

func TestTornTailHealed(t *testing.T) {
	j, path := openFresh(t, Options{})
	j.Append(accept("j1"))
	j.Append(accept("j2"))
	j.Close()
	// Simulate a crash mid-append: a partial line with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`deadbeef {"op":"done","id":"j`)
	f.Close()

	j2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 || len(rep.Live) != 2 {
		t.Fatalf("replay corrupt=%d live=%d, want 1/2", rep.Corrupt, len(rep.Live))
	}
	// The healed journal accepts appends and replays cleanly afterwards.
	if err := j2.Append(Record{Op: OpDone, ID: "j1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, rep2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Corrupt != 0 || len(rep2.Live) != 1 || rep2.Live[0].ID != "j2" {
		t.Fatalf("post-heal replay %+v, want clean with j2 live", rep2)
	}
}

func TestCorruptInteriorRecordSkipped(t *testing.T) {
	j, path := openFresh(t, Options{})
	j.Append(accept("j1"))
	j.Append(accept("j2"))
	j.Append(Record{Op: OpDone, ID: "j1", State: "done"})
	j.Close()

	// Flip a byte in the middle record (j2's accept): its checksum fails,
	// replay skips it, and only that job is affected.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	lines[1] = strings.Replace(lines[1], "j2", "jX", 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rep.Corrupt != 1 {
		t.Fatalf("corrupt=%d, want 1", rep.Corrupt)
	}
	if len(rep.Live) != 0 {
		t.Fatalf("live=%v, want none (j1 done, j2's accept corrupted away)", rep.Live)
	}
}

func TestRuntimeCompaction(t *testing.T) {
	j, path := openFresh(t, Options{})
	var want []string
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("j%d", i)
		j.Append(accept(id))
		if i%25 == 0 {
			want = append(want, id)
			continue
		}
		j.Append(Record{Op: OpDone, ID: id, State: "done"})
	}
	// A done for a job the journal does not hold writes nothing.
	n := j.Records()
	if err := j.Append(Record{Op: OpDone, ID: "estimate-cell", State: "done"}); err != nil || j.Records() != n {
		t.Fatalf("done for an unheld job: err %v, records %d -> %d", err, n, j.Records())
	}
	if !j.ShouldCompact() {
		t.Fatalf("%d records, %d live: ShouldCompact=false", j.Records(), j.Live())
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if j.Records() != len(want) || j.Live() != len(want) || j.ShouldCompact() {
		t.Fatalf("post-compact records=%d live=%d shouldCompact=%v", j.Records(), j.Live(), j.ShouldCompact())
	}
	// Appends keep working after the rewrite swapped the fd.
	if err := j.Append(Record{Op: OpDone, ID: want[0], State: "done"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, lj := range rep.Live {
		got = append(got, lj.ID)
	}
	if rep.Corrupt != 0 || !reflect.DeepEqual(got, want[1:]) {
		t.Fatalf("replay after compaction: live %v, corrupt %d; want %v in accept order, 0", got, rep.Corrupt, want[1:])
	}
}

func TestSyncHookFailureSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	boom := errors.New("disk on fire")
	calls := 0
	j, _, err := Open(path, Options{Sync: true, SyncHook: func() error {
		calls++
		return boom
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(accept("j1")); !errors.Is(err, boom) {
		t.Fatalf("append with failing sync returned %v, want %v", err, boom)
	}
	if calls == 0 {
		t.Fatal("sync hook never called")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := openFresh(t, Options{})
	j.Close()
	if err := j.Append(accept("j1")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

func TestDeadlinePreserved(t *testing.T) {
	j, path := openFresh(t, Options{})
	rec := accept("j1")
	rec.Deadline = 1234567890123
	j.Append(rec)
	j.Close()
	// Two reopens: the second replays the compacted file, proving the
	// deadline survives compaction too.
	for i := 0; i < 2; i++ {
		j2, rep, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Live) != 1 || rep.Live[0].Deadline != 1234567890123 {
			t.Fatalf("reopen %d: deadline lost: %+v", i, rep.Live)
		}
		j2.Close()
	}
}

// compactFails compacts j, which must fail, and checks that the failure
// left nothing behind: no temporary file, and a journal file that replays
// to the live set it held before.
func compactFails(t *testing.T, j *Journal, path string) error {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cerr := j.Compact()
	if cerr == nil {
		t.Fatal("Compact succeeded")
	}
	if _, err := os.Lstat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("a failed compaction left its temporary file behind (%v)", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Errorf("a failed compaction changed the journal:\nbefore %q\nafter  %q", before, after)
	}
	return cerr
}

// openWithDead opens a journal holding live job j0 and a finished job j1,
// so a compaction has a record to drop.
func openWithDead(t *testing.T, opt Options) (*Journal, string) {
	t.Helper()
	j, path := openFresh(t, opt)
	for _, rec := range []Record{accept("j0"), accept("j1"), {Op: OpDone, ID: "j1", State: "done"}} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return j, path
}

// TestCompactOpenFails: a temporary file that cannot be created fails the
// compaction and costs nothing: the journal keeps appending to its file.
func TestCompactOpenFails(t *testing.T) {
	j, path := openWithDead(t, Options{})
	if err := os.Mkdir(path+".compact", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err == nil {
		t.Fatal("Compact succeeded with a directory in its temporary file's place")
	}
	if err := j.Append(accept("j2")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := os.Remove(path + ".compact"); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Live) != 2 || rep.Records != 4 {
		t.Fatalf("replay after a failed compaction: %d live of %d records, want 2 of 4", len(rep.Live), rep.Records)
	}
}

// fullDevice plants /dev/full in the temporary file's place: writes to it
// fail with ENOSPC, an fsync with EINVAL.
func fullDevice(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full")
	}
	if err := os.Symlink("/dev/full", path+".compact"); err != nil {
		t.Fatal(err)
	}
}

// TestCompactWriteFails: a temporary file the live set cannot be written to
// fails the compaction, which removes it.
func TestCompactWriteFails(t *testing.T) {
	j, path := openWithDead(t, Options{})
	fullDevice(t, path)
	if err := compactFails(t, j, path); !strings.Contains(err.Error(), "no space") {
		t.Errorf("Compact returned %v, want the write's ENOSPC", err)
	}
}

// TestCompactFsyncFails: with Sync on and no hook, the temporary file's own
// fsync failing fails the compaction, which removes the file. The live set
// is empty, so nothing is written before the fsync.
func TestCompactFsyncFails(t *testing.T) {
	j, path := openFresh(t, Options{Sync: true})
	for _, rec := range []Record{accept("j0"), {Op: OpDone, ID: "j0", State: "done"}} {
		if err := j.Append(rec); err != nil { // a real fsync, which succeeds
			t.Fatal(err)
		}
	}
	fullDevice(t, path)
	if err := compactFails(t, j, path); !strings.Contains(err.Error(), "sync") {
		t.Errorf("Compact returned %v, want the fsync's error", err)
	}
}

// TestCompactSyncHookFails: a failing sync hook fails the compaction, which
// removes its temporary file.
func TestCompactSyncHookFails(t *testing.T) {
	boom := errors.New("disk on fire")
	failing := false
	j, path := openWithDead(t, Options{Sync: true, SyncHook: func() error {
		if failing {
			return boom
		}
		return nil
	}})
	failing = true
	if err := compactFails(t, j, path); !errors.Is(err, boom) {
		t.Errorf("Compact returned %v, want %v", err, boom)
	}
}

// TestCompactRenameFails: a journal path the temporary file cannot be
// renamed over fails the compaction, which removes the temporary file.
func TestCompactRenameFails(t *testing.T) {
	j, path := openWithDead(t, Options{})
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err == nil || !strings.Contains(err.Error(), "compact") {
		t.Fatalf("Compact over a directory returned %v, want the rename's error", err)
	}
	if _, err := os.Lstat(path + ".compact"); !os.IsNotExist(err) {
		t.Errorf("a failed rename left the temporary file behind (%v)", err)
	}
}
