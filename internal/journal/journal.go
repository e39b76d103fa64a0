// Package journal is the sacd daemon's durable job journal: an append-only
// write-ahead log that records the lifecycle of every accepted job so a
// crashed daemon — OOM-killed, panicked, kill -9'd — loses nothing it
// acknowledged. Each record is one line, a CRC-32C checksum over a compact
// JSON payload, and appends are fsync'd (gated by Options.Sync) before the
// caller proceeds, so an acknowledged accept is on disk before the client
// sees its 202.
//
// Replay semantics: a job is *live* — and must be re-enqueued by the next
// daemon life — iff an accept record exists with no done record after it. A
// clean shutdown appends a mark record, which replay reports so operators
// can tell a crash from a graceful drain. A line of any other op is a valid
// record that changes nothing, so older journals, which also carry start
// records, replay the same way. Corrupt or torn records never wedge
// recovery: a torn tail (the crash interrupted the last write) is truncated
// away, a corrupt interior record is skipped and counted, and both surface
// in Replay.Corrupt so silent data loss is observable rather than silent.
//
// The journal owns the live set: replay seeds it, and every appended accept
// adds to it and every done drops from it. Opening rewrites the file down to
// exactly the live set, in accept order (dead accept/done pairs and shutdown
// marks drop out), and ShouldCompact tells the owner when the live set is
// small relative to the record count, so it can Compact during operation.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Op is a record type.
type Op string

// Record operations, in lifecycle order.
const (
	// OpAccept records a job entering the queue; Req carries the full
	// request so replay can reconstruct it.
	OpAccept Op = "accept"
	// OpDone records a terminal state (State: done/failed/expired). A done
	// for a job the journal does not hold is not written.
	OpDone Op = "done"
	// OpMark is a non-job annotation; State "shutdown" marks a clean drain.
	OpMark Op = "mark"
)

// MarkShutdown is the State of a clean-shutdown mark record.
const MarkShutdown = "shutdown"

// Record is one journal entry.
type Record struct {
	Op Op     `json:"op"`
	ID string `json:"id,omitempty"`
	// State carries the terminal state on done records ("done", "failed",
	// "expired") and the mark kind on mark records; replay ignores it on
	// accept records.
	State string `json:"state,omitempty"`
	// Req is the accepted request, opaque to the journal.
	Req json.RawMessage `json:"req,omitempty"`
	// Deadline is the job's absolute deadline in unix milliseconds (0 =
	// none); preserved across restarts so a crash does not extend an SLO.
	Deadline int64 `json:"deadline,omitempty"`
	// Unix is the record time in unix milliseconds.
	Unix int64 `json:"ts,omitempty"`
}

// LiveJob is one accepted-but-unfinished job reconstructed by replay.
type LiveJob struct {
	ID       string
	Req      json.RawMessage
	Deadline int64 // unix ms, 0 = none
}

// Replay is the result of reading a journal at Open.
type Replay struct {
	// Live lists accepted-but-unfinished jobs in accept order.
	Live []LiveJob
	// Records counts valid records read, in the file as Open found it.
	Records int
	// Corrupt counts records dropped: checksum mismatches, undecodable
	// payloads, and a torn final line.
	Corrupt int
	// CleanShutdown reports whether the previous life ended with a
	// shutdown mark (graceful drain) rather than a crash.
	CleanShutdown bool
	// Compacted reports whether Open rewrote the file down to the live set.
	Compacted bool
}

// Options tune a Journal.
type Options struct {
	// Sync fsyncs the file after every append, making acknowledged records
	// durable across a hard crash. Off, appends still reach the OS page
	// cache (surviving process death, not power loss) — the fast mode for
	// CI, gated by REPRO_JOURNAL_SYNC in the daemon.
	Sync bool
	// SyncHook, when set, replaces the fsync entirely (chaos injection:
	// return an error to model a failing disk, return nil to model a
	// dropped sync). Called only when Sync is true.
	SyncHook func() error
}

// Journal is an open write-ahead log and the live set it holds. All methods
// are safe for concurrent use.
type Journal struct {
	path string
	opt  Options

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	records int
	// live holds the accepted-but-unfinished jobs by id. order holds every
	// accept since the last rewrite; the ones still in live are the live
	// set in accept order.
	live   map[string]*LiveJob
	order  []*LiveJob
	closed bool
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encode renders one record line: "<crc32c-hex8> <json>\n".
func encode(rec Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	sum := crc32.Checksum(b, crcTable)
	line := make([]byte, 0, len(b)+10)
	line = append(line, fmt.Sprintf("%08x ", sum)...)
	line = append(line, b...)
	line = append(line, '\n')
	return line, nil
}

// decode parses one line; ok=false means the line is corrupt.
func decode(line []byte) (Record, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return Record{}, false
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return Record{}, false
	}
	payload := line[9:]
	if crc32.Checksum(payload, crcTable) != sum {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, false
	}
	return rec, true
}

// Open reads (replaying) and opens the journal at path, creating it if
// absent, and rewrites the file down to the live set — so the returned
// journal starts with Records() == len(Replay.Live) and the caller must NOT
// re-append accepts for the live jobs it re-enqueues.
func Open(path string, opt Options) (*Journal, *Replay, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("journal: empty path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, opt: opt, live: make(map[string]*LiveJob)}
	rep, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	rep.Live = j.liveLocked()
	if err := j.reopen(); err != nil {
		return nil, nil, err
	}
	j.records = rep.Records
	if rep.Records != len(rep.Live) || rep.Corrupt > 0 {
		if err := j.Compact(); err != nil {
			j.f.Close()
			return nil, nil, err
		}
		rep.Compacted = true
	}
	return j, rep, nil
}

// replay applies every record of the file to the live set. A torn final
// line is healed by truncating the file to the last good offset.
func (j *Journal) replay() (*Replay, error) {
	rep := &Replay{}
	b, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	goodEnd := 0 // offset just past the last well-formed line
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			// Torn tail: the crash interrupted the final append.
			rep.Corrupt++
			break
		}
		line := b[off : off+nl]
		off += nl + 1
		// A corrupt interior record is skipped, not fatal: later records
		// still parse, and losing a done record only re-runs a job the store
		// already answers for.
		goodEnd = off
		rec, ok := decode(line)
		if !ok {
			rep.Corrupt++
			continue
		}
		rep.Records++
		j.apply(rec)
		rep.CleanShutdown = rec.Op == OpMark && rec.State == MarkShutdown
	}
	if goodEnd < len(b) {
		// Heal the tail so the next append starts on a clean line.
		if err := os.Truncate(j.path, int64(goodEnd)); err != nil {
			return nil, fmt.Errorf("journal: healing torn tail: %w", err)
		}
	}
	return rep, nil
}

// writes reports whether rec is written: a done for a job the journal does
// not hold, and a second accept of a live one, are not.
func (j *Journal) writes(rec Record) bool {
	_, live := j.live[rec.ID]
	switch rec.Op {
	case OpAccept:
		return !live && rec.ID != ""
	case OpDone:
		return live
	}
	return true
}

// apply is one record's effect on the live set.
func (j *Journal) apply(rec Record) {
	if !j.writes(rec) {
		return
	}
	switch rec.Op {
	case OpAccept:
		lj := &LiveJob{ID: rec.ID, Req: rec.Req, Deadline: rec.Deadline}
		j.live[rec.ID] = lj
		j.order = append(j.order, lj)
	case OpDone:
		delete(j.live, rec.ID)
	}
}

// liveLocked returns the live set in accept order, dropping the finished
// jobs from order as it goes.
func (j *Journal) liveLocked() []LiveJob {
	out := make([]LiveJob, 0, len(j.live))
	kept := j.order[:0]
	for _, lj := range j.order {
		if j.live[lj.ID] == lj {
			kept = append(kept, lj)
			out = append(out, *lj)
		}
	}
	clear(j.order[len(kept):])
	j.order = kept
	return out
}

// rewrite atomically replaces the file with accept records for live: it
// writes them to a temporary file, fsyncs that (with Sync) and renames it
// over the journal. On failure the temporary file is removed and the
// journal file is left as it was.
func (j *Journal) rewrite(live []LiveJob) error {
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(f)
	now := time.Now().UnixMilli()
	for _, lj := range live {
		// Every live request was decoded from, or encoded into, a record
		// already, so encoding it again cannot fail. A failed write sticks
		// in w, and Flush reports it.
		line, _ := encode(Record{Op: OpAccept, ID: lj.ID, Req: lj.Req, Deadline: lj.Deadline, Unix: now})
		w.Write(line)
	}
	err = w.Flush()
	if err == nil && j.opt.Sync {
		err = j.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("journal: compact: %w", err)
	}
	return nil
}

// reopen opens the file for appending.
func (j *Journal) reopen() error {
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.f, j.w = f, bufio.NewWriter(f)
	return nil
}

// syncFile runs the configured fsync (or its chaos replacement) on f.
func (j *Journal) syncFile(f *os.File) error {
	fsync := f.Sync
	if j.opt.SyncHook != nil {
		fsync = j.opt.SyncHook
	}
	if err := fsync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// Append writes one record and (with Sync) makes it durable before
// returning; an accept joins the live set and a done leaves it. A done for a
// job the journal does not hold, and a second accept of a live one, write
// nothing. An Append error means the record may not be durable, and leaves
// the live set as it was; the owner should stop acknowledging work that
// depends on it.
func (j *Journal) Append(rec Record) error {
	if rec.Unix == 0 {
		rec.Unix = time.Now().UnixMilli()
	}
	line, err := encode(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if !j.writes(rec) {
		return nil
	}
	if _, err := j.w.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.opt.Sync {
		if err := j.syncFile(j.f); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	j.records++
	j.apply(rec)
	return nil
}

// Holds reports whether the journal holds id as live, so a done for it
// would be written.
func (j *Journal) Holds(id string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.live[id]
	return ok
}

// Records returns the record count of the current file.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Live returns how many accepted-but-unfinished jobs the journal holds.
func (j *Journal) Live() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.live)
}

// ShouldCompact reports whether dead records dominate the file: compaction
// pays off once the file holds 4x more records than live jobs (with a floor
// so small journals never churn).
func (j *Journal) ShouldCompact() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records > 64 && j.records > 4*len(j.live)
}

// Compact rewrites the journal to exactly its live set, in accept order.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	live := j.liveLocked()
	err := j.rewrite(live)
	if err == nil {
		j.records = len(live)
	}
	// The old fd is gone; reopen in append mode regardless so the journal
	// stays usable even if the rewrite failed.
	if rerr := j.reopen(); err == nil {
		err = rerr
	}
	return err
}

// Close flushes and closes the file. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var errs []string
	if err := j.w.Flush(); err != nil {
		errs = append(errs, err.Error())
	}
	if j.opt.Sync {
		if err := j.syncFile(j.f); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if err := j.f.Close(); err != nil {
		errs = append(errs, err.Error())
	}
	if len(errs) > 0 {
		return fmt.Errorf("journal: close: %s", strings.Join(errs, "; "))
	}
	return nil
}
