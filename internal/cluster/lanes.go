package cluster

import (
	"context"
	"fmt"
	"sync"

	"repro/client"
	"repro/internal/jobs"
	"repro/internal/wire"
)

// lanes carry every dispatch to one worker. The submit lane is a group
// commit: a dispatch that finds no submit in flight sends everything queued
// as one SubmitBatch, and dispatches that arrive meanwhile queue for the
// next. The watch lane keeps one long-poll over every worker job id still
// outstanding, re-armed when new ids arrive so that none waits on another
// job's completion, and stopped when none is left. A group's HTTP call
// belongs to no job's context: each item's deadline travels as its
// TimeoutMS, and a job that gives up leaves its lane without disturbing the
// rest of its group.
type lanes struct {
	c  *Coordinator
	w  *workerEntry
	id string

	mu      sync.Mutex
	queue   []*laneItem
	sending bool
	watched map[string]*laneItem // worker job id → the dispatch waiting on it
	polling bool
	// rearm ends the long-poll in flight, so the next covers the current
	// set; nil while none is in flight.
	rearm context.CancelFunc
}

// laneItem is one dispatch attempt as the lanes carry it.
type laneItem struct {
	req  client.JobRequest
	key  string
	size int // the request's encoded bytes in a batch body
	// out receives the submit lane's answer and then, for an item it moved
	// into the watch lane, the watch lane's: a slot for each, so neither
	// lane blocks on a dispatcher that has not read the first yet.
	out chan laneResult

	// Guarded by lanes.mu.
	group *group         // the submit in flight carrying the item
	cl    *client.Client // the client the worker accepted it through
	wid   string         // the worker's job id while the watch lane holds it
	left  bool           // the dispatcher gave up
}

// laneResult is a lane's answer to one item: a worker status (terminal,
// unless it comes from the submit lane with the item now watched), or an
// error.
type laneResult struct {
	st  client.JobStatus
	err error
}

// group is one SubmitBatch in flight. When every item in it has left, its
// call is canceled.
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
	return &lanes{c: c, w: w, id: id, watched: make(map[string]*laneItem)}
}

// clients snapshots the worker's client and its retry-free copy: a
// re-registration swaps them.
func (l *lanes) clients() (cl, once *client.Client) {
	l.c.mu.Lock()
	defer l.c.mu.Unlock()
	return l.w.cl, l.w.once
}

// run carries one dispatch attempt through the lanes and returns its final
// answer: the submit lane's, or, for a job the worker accepted without
// finishing it, the watch lane's.
func (l *lanes) run(ctx context.Context, req client.JobRequest, key string) laneResult {
	bp := wire.GetBuf()
	b := client.AppendRequest((*bp)[:0], &req)
	it := &laneItem{req: req, key: key, size: len(b), out: make(chan laneResult, 2)}
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

	r := l.await(ctx, it)
	if r.err == nil && !r.st.Done() {
		r = l.await(ctx, it)
	}
	return r
}

// await returns the item's next answer. On ctx's end the item leaves its
// lane; a job the worker already holds is steal-canceled there, now or, if
// its submit is still in flight, when it answers.
func (l *lanes) await(ctx context.Context, it *laneItem) laneResult {
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
	if wid != "" {
		l.unwatchLocked(wid)
	}
	l.mu.Unlock()
	if wid != "" {
		l.c.stealCancel(cl, wid, l.id)
	}
	return laneResult{err: fmt.Errorf("worker %s: %w", l.id, ctx.Err())}
}

// sendLoop is the submit lane: one group per round of what is queued, until
// the queue is empty.
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

// send submits g's items as one SubmitBatch and hands each its answer. sacd
// admits a batch all-or-nothing, so a full queue, one shed item or one
// invalid item refuses a whole group. A group therefore goes out once,
// without the client's retries, and if it fails, each of its items still
// waiting is resent alone: each job gets the answer a one-item submit gets.
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
	g.cancel()
	if err == nil && len(sts) != len(reqs) {
		err = fmt.Errorf("%d statuses for %d jobs", len(sts), len(reqs))
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for i, it := range g.items {
		it.group = nil
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
			it.out <- laneResult{err: fmt.Errorf("worker %s: submit: %w", l.id, err)}
		default:
			it.out <- l.acceptLocked(it, sts[i], cl)
		}
	}
}

// acceptLocked reads the status a worker accepted an item with: a terminal
// or mismatched one is the item's answer, any other moves the item into the
// watch lane, whose answer follows.
func (l *lanes) acceptLocked(it *laneItem, st client.JobStatus, cl *client.Client) laneResult {
	r := laneResult{st: st}
	switch {
	case st.Key != "" && st.Key != it.key:
		// Placement and dedup both hang off this key; a worker computing a
		// different one means version drift, which stealing cannot fix.
		r.err = fmt.Errorf("%w: worker %s key mismatch: %s != %s", errPermanent, l.id, st.Key, it.key)
	case !st.Done():
		it.cl, it.wid = cl, st.ID
		l.watched[st.ID] = it
		if !l.polling {
			l.polling = true
			l.c.wg.Add(1)
			go l.pollLoop()
		} else if l.rearm != nil {
			l.rearm()
			l.rearm = nil
		}
	}
	return r
}

// unwatchLocked drops a worker job id from the watch lane, ending the
// long-poll in flight when nothing is left to watch.
func (l *lanes) unwatchLocked(wid string) {
	delete(l.watched, wid)
	if len(l.watched) == 0 && l.rearm != nil {
		l.rearm()
		l.rearm = nil
	}
}

// finishLocked sends the item watching wid its final answer; false means
// no item watches wid any more.
func (l *lanes) finishLocked(wid string, r laneResult) bool {
	it := l.watched[wid]
	if it == nil {
		return false
	}
	delete(l.watched, wid)
	it.wid = ""
	it.out <- r
	return true
}

// pollLoop is the watch lane: one long-poll round per pass over every
// watched id, fanning each terminal status, unknown id and transport error
// out to its dispatcher, until nothing is watched.
func (l *lanes) pollLoop() {
	defer l.c.wg.Done()
	for {
		l.mu.Lock()
		if len(l.watched) == 0 {
			l.polling = false
			l.mu.Unlock()
			return
		}
		ids := make([]string, 0, len(l.watched))
		for wid := range l.watched {
			ids = append(ids, wid)
		}
		ctx, cancel := context.WithCancel(context.Background())
		l.rearm = cancel
		l.mu.Unlock()

		cl, _ := l.clients()
		polls := poll(ctx, cl, ids)
		cancel()

		l.mu.Lock()
		l.rearm = nil
		for _, p := range polls {
			switch {
			case p.canceled:
				// Re-armed or abandoned: the next round covers these ids.
			case p.err != nil:
				for _, wid := range p.ids {
					if l.finishLocked(wid, laneResult{err: fmt.Errorf("worker %s: watch: %w", l.id, p.err)}) {
						l.c.stealCancel(cl, wid, l.id)
					}
				}
			default:
				for _, st := range p.resp.Jobs {
					l.finishLocked(st.ID, laneResult{st: st})
				}
				for _, wid := range p.resp.Unknown {
					// The worker restarted or forgot the job mid-watch: steal.
					l.finishLocked(wid, laneResult{err: fmt.Errorf("worker %s: job %s vanished", l.id, wid)})
				}
			}
		}
		l.mu.Unlock()
	}
}

// polled is one long-poll's answer over a chunk of ids. canceled marks a
// call cut short by a re-arm or by another chunk answering first.
type polled struct {
	ids      []string
	resp     client.WatchResponse
	err      error
	canceled bool
}

// poll long-polls ids, client.MaxBatch per call, until the first call
// answers; that cancels the rest, whose ids the next round covers.
func poll(ctx context.Context, cl *client.Client, ids []string) []polled {
	var ps []polled
	for len(ids) > 0 {
		n := min(len(ids), client.MaxBatch)
		ps = append(ps, polled{ids: ids[:n]})
		ids = ids[n:]
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for i := range ps {
		wg.Add(1)
		go func(p *polled) {
			defer wg.Done()
			p.resp, p.err = cl.Watch(ctx, p.ids, 0)
			p.canceled = p.err != nil && ctx.Err() != nil
			cancel()
		}(&ps[i])
	}
	wg.Wait()
	return ps
}
