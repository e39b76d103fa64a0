package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// lanes carry every dispatch to one worker as submit groups. A group is a
// commit: a dispatch that finds no submit in flight sends everything queued
// as one SubmitBatch, and dispatches that arrive meanwhile queue for the
// next. Once its submit answers, the group long-polls the jobs the worker
// accepted without finishing in one watch, which the worker answers when
// every one of them is terminal. A group's HTTP calls belong to no job's
// context: each item's deadline travels as its TimeoutMS, and a job that
// gives up leaves its group without disturbing the rest.
type lanes struct {
	c  *Coordinator
	w  *workerEntry
	id string

	mu      sync.Mutex
	queue   []*laneItem
	sending bool
}

// laneItem is one dispatch attempt as the lanes carry it.
type laneItem struct {
	req  client.JobRequest
	key  string
	size int             // the request's encoded bytes in a batch body
	out  chan laneResult // the item's one final answer

	// Guarded by lanes.mu.
	group *group         // the group carrying the item until it is answered
	cl    *client.Client // the client the worker accepted it through
	wid   string         // the worker's job id while its group watches it
	left  bool           // the dispatcher gave up
}

// laneResult is the lanes' final answer to one item: a terminal worker
// status, or an error.
type laneResult struct {
	st  client.JobStatus
	err error
}

// group is one SubmitBatch and the watches that follow it. live counts the
// items still waiting on it; when the last of them leaves, its call in
// flight is canceled.
type group struct {
	items  []*laneItem
	live   int
	ctx    context.Context
	cancel context.CancelFunc
}

// batchFrame is the bytes a batch body spends around its items, which
// commas separate.
const batchFrame = len(`{"jobs":[]}`)

func newLanes(c *Coordinator, w *workerEntry, id string) *lanes {
	return &lanes{c: c, w: w, id: id}
}

// clients snapshots the worker's client and its retry-free copy: a
// re-registration swaps them.
func (l *lanes) clients() (cl, once *client.Client) {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.w.cl, l.w.once
}

// run carries one dispatch attempt in the next group and returns its final
// answer. On ctx's end the item leaves its group; a job the worker already
// holds is steal-canceled there, now or, if its submit is still in flight,
// when it answers.
func (l *lanes) run(ctx context.Context, req client.JobRequest, key string) laneResult {
	bp := wire.GetBuf()
	b := client.AppendRequest((*bp)[:0], &req)
	it := &laneItem{req: req, key: key, size: len(b), out: make(chan laneResult, 1)}
	*bp = b[:0]
	wire.PutBuf(bp)

	l.mu.Lock()
	l.queue = append(l.queue, it)
	if !l.sending {
		l.sending = true
		l.c.wg.Add(1)
		go l.sendLoop()
	}
	l.mu.Unlock()

	select {
	case r := <-it.out:
		return r
	case <-ctx.Done():
	}
	l.mu.Lock()
	it.left = true
	if g := it.group; g != nil {
		if g.live--; g.live == 0 {
			g.cancel()
		}
	}
	wid, cl := it.wid, it.cl
	l.mu.Unlock()
	if wid != "" {
		l.c.stealCancel(cl, wid, l.id)
	}
	return laneResult{err: fmt.Errorf("worker %s: %w", l.id, ctx.Err())}
}

// sendLoop submits one group per round of what is queued, until the queue
// is empty.
func (l *lanes) sendLoop() {
	defer l.c.wg.Done()
	for {
		l.mu.Lock()
		g := l.takeLocked()
		if g == nil {
			l.sending = false
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
		l.send(g)
	}
}

// takeLocked takes the next group off the queue: the items still waiting,
// in order, while they fit client.MaxBatch items and a body of
// jobs.MaxBodyBytes. The first item goes even alone past the bound, to get
// the answer a one-item submit gets. Nil means nothing waits.
func (l *lanes) takeLocked() *group {
	var items []*laneItem
	size := batchFrame
	full := false
	rest := l.queue[:0]
	for _, it := range l.queue {
		switch {
		case it.left:
		case len(items) == 0:
			items, size = append(items, it), size+it.size
		case !full && len(items) < client.MaxBatch && size+1+it.size <= jobs.MaxBodyBytes:
			items, size = append(items, it), size+1+it.size // a comma and the item
		default:
			full = true
			rest = append(rest, it)
		}
	}
	clear(l.queue[len(rest):])
	l.queue = rest
	if len(items) == 0 {
		return nil
	}
	return l.groupLocked(items)
}

// groupLocked makes items the group of one submit call.
func (l *lanes) groupLocked(items []*laneItem) *group {
	ctx, cancel := context.WithCancel(context.Background())
	g := &group{items: items, live: len(items), ctx: ctx, cancel: cancel}
	for _, it := range items {
		it.group = g
	}
	return g
}

// answerLocked hands it its final answer; it waits on its group no more.
func (l *lanes) answerLocked(it *laneItem, r laneResult) {
	it.group.live--
	it.group, it.wid = nil, ""
	it.out <- r
}

// send submits g's items as one SubmitBatch, answers each item the worker
// refused, finished or mismatched, and hands the rest to the group's watch.
// sacd admits a batch all-or-nothing, so a full queue, an unhealthy or
// draining worker, or one invalid item refuses a whole group. A group
// therefore goes out once, without the client's retries, and if it fails,
// each of its items still waiting is resent alone: each job gets the answer
// a one-item submit gets.
func (l *lanes) send(g *group) {
	cl, once := l.clients()
	call := cl
	if len(g.items) > 1 {
		call = once
	}
	reqs := make([]client.JobRequest, len(g.items))
	for i, it := range g.items {
		reqs[i] = it.req
	}
	sts, err := call.SubmitBatch(g.ctx, reqs)
	if err == nil && len(sts) != len(reqs) {
		err = fmt.Errorf("%d statuses for %d jobs", len(sts), len(reqs))
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	watched := make(map[string]*laneItem)
	for i, it := range g.items {
		switch {
		case it.left:
			if err == nil && !sts[i].Done() {
				l.c.stealCancel(cl, sts[i].ID, l.id)
			}
		case err != nil && len(g.items) > 1:
			alone := l.groupLocked([]*laneItem{it})
			l.c.wg.Add(1)
			go func() {
				defer l.c.wg.Done()
				l.send(alone)
			}()
		case err != nil:
			l.answerLocked(it, laneResult{err: fmt.Errorf("worker %s: submit: %w", l.id, err)})
		case sts[i].Key != "" && sts[i].Key != it.key:
			// Placement and dedup both hang off this key; a worker computing a
			// different one means version drift, which stealing cannot fix.
			// Nobody waits on the job it accepted, so it is stopped too.
			if !sts[i].Done() {
				l.c.stealCancel(cl, sts[i].ID, l.id)
			}
			l.answerLocked(it, laneResult{st: sts[i], err: fmt.Errorf("%w: worker %s key mismatch: %s != %s",
				errPermanent, l.id, sts[i].Key, it.key)})
		case sts[i].Done():
			l.answerLocked(it, laneResult{st: sts[i]})
		default:
			it.cl, it.wid = cl, sts[i].ID
			watched[it.wid] = it
		}
	}
	if len(watched) == 0 {
		g.cancel()
		return
	}
	l.c.wg.Add(1)
	go l.watch(g, cl, watched)
}

// watch long-polls the worker for g's accepted, unfinished jobs, by worker
// job id, and fans each terminal status, unknown id and transport error out
// to its item. The worker answers a call once every id in it is terminal, so
// a group makes one call, and another over the ids still unanswered only
// after a 45-s re-arm or an unknown id. An item that left stays in the call:
// its leave steal-canceled the job, which ends it. A group holds at most
// client.MaxBatch items, so one call names them all.
func (l *lanes) watch(g *group, cl *client.Client, watched map[string]*laneItem) {
	defer l.c.wg.Done()
	defer g.cancel()
	for len(watched) > 0 {
		ids := make([]string, 0, len(watched))
		for wid := range watched {
			ids = append(ids, wid)
		}
		resp, err := cl.Watch(g.ctx, ids, 0)

		l.mu.Lock()
		// settle answers wid's item; false means it has left.
		settle := func(wid string, r laneResult) bool {
			it := watched[wid]
			delete(watched, wid)
			if it == nil || it.left {
				return false
			}
			l.answerLocked(it, r)
			return true
		}
		if err != nil {
			// A call canceled because every item left settles none.
			for _, wid := range ids {
				if settle(wid, laneResult{err: fmt.Errorf("worker %s: watch: %w", l.id, err)}) {
					l.c.stealCancel(cl, wid, l.id)
				}
			}
		}
		for _, st := range resp.Jobs {
			settle(st.ID, laneResult{st: st})
		}
		for _, wid := range resp.Unknown {
			// The worker restarted or forgot the job mid-watch: steal.
			settle(wid, laneResult{err: fmt.Errorf("worker %s: job %s vanished", l.id, wid)})
		}
		l.mu.Unlock()
	}
}
