package client

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
)

// Batcher coalesces concurrent Run calls into jobs:batch submissions plus
// shared jobs:watch collection. Callers keep the one-cell Run signature (the
// eval.Runner Simulate hook), but N concurrent cells cost one submit round
// trip and one open long-poll instead of N submits and N poll loops.
//
// Grouping is leader-windowed: the first call to arrive at an open group
// becomes its leader, waits up to the linger window (or until the group
// fills) for peers, then executes the batch inline and hands each member its
// result. A group shares its leader's context fate — Batcher is built for
// callers that share one sweep context, not for isolating unrelated callers.
type Batcher struct {
	c *Client

	mu  sync.Mutex
	cur *group
}

type batchOut struct {
	res *stats.Run
	err error
}

type group struct {
	reqs []JobRequest
	outs []chan batchOut
	seal chan struct{} // closed once the group stops accepting members
}

const (
	// batchMax bounds jobs per batch; it must not exceed MaxBatch.
	batchMax = 256
	// batchLinger is how long a leader holds the window open for peers:
	// enough for a worker pool's worth of concurrent calls to pile in,
	// invisible next to a round trip.
	batchLinger = 2 * time.Millisecond
)

// NewBatcher wraps c.
func NewBatcher(c *Client) *Batcher { return &Batcher{c: c} }

// Run submits one cell through the current batch window and blocks until its
// result arrives — the batched equivalent of Client.Run.
func (b *Batcher) Run(ctx context.Context, req JobRequest) (*stats.Run, error) {
	out := make(chan batchOut, 1)
	b.mu.Lock()
	g := b.cur
	leader := g == nil
	if leader {
		g = &group{seal: make(chan struct{})}
		b.cur = g
	}
	g.reqs = append(g.reqs, req)
	g.outs = append(g.outs, out)
	if len(g.reqs) >= batchMax {
		b.sealLocked(g)
	}
	b.mu.Unlock()

	if leader {
		timer := time.NewTimer(batchLinger)
		select {
		case <-g.seal: // filled by a member
			timer.Stop()
		case <-timer.C:
			b.seal(g)
		case <-ctx.Done():
			timer.Stop()
			b.seal(g)
		}
		b.execute(ctx, g)
	}
	select {
	case o := <-out:
		return o.res, o.err
	case <-ctx.Done():
		// The leader still owns the slot; the buffered channel absorbs its
		// eventual delivery.
		return nil, ctx.Err()
	}
}

// seal detaches g from the open slot so no more members join; idempotent.
func (b *Batcher) seal(g *group) {
	b.mu.Lock()
	b.sealLocked(g)
	b.mu.Unlock()
}

func (b *Batcher) sealLocked(g *group) {
	if b.cur == g {
		b.cur = nil
		close(g.seal)
	}
}

// execute runs a sealed group: one batch submit, then one shared watch loop
// over whatever came back non-terminal. Like WaitAll, the loop re-arms a
// backpressured watch instead of failing the group.
func (b *Batcher) execute(ctx context.Context, g *group) {
	sts, err := b.c.SubmitBatch(ctx, g.reqs)
	if err != nil {
		for i := range g.outs {
			g.outs[i] <- batchOut{nil, err}
		}
		return
	}
	byID := make(map[string]int, len(sts))
	var pending []string
	for i, st := range sts {
		if st.Done() {
			g.outs[i] <- settle(st)
			continue
		}
		byID[st.ID] = i
		pending = append(pending, st.ID)
	}
	for len(pending) > 0 {
		fail := func(err error) {
			for _, i := range byID {
				g.outs[i] <- batchOut{nil, err}
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			fail(cerr)
			return
		}
		resp, werr := b.c.Watch(ctx, pending, 0)
		if b.c.rearm(ctx, werr) {
			continue
		}
		if werr != nil {
			fail(werr)
			return
		}
		for _, id := range resp.Unknown {
			if i, ok := byID[id]; ok {
				g.outs[i] <- batchOut{nil, fmt.Errorf("sacd: job %s vanished while watched", id)}
				delete(byID, id)
			}
		}
		for _, st := range resp.Jobs {
			if i, ok := byID[st.ID]; ok {
				g.outs[i] <- settle(st)
				delete(byID, st.ID)
			}
		}
		pending = pending[:0]
		for id := range byID {
			pending = append(pending, id)
		}
	}
}

// settle turns one terminal status into a member's outcome. Batch and watch
// responses carry a done job's result inline, so a done status without one
// is an error, not a reason for another round trip.
func settle(st JobStatus) batchOut {
	switch st.State {
	case StateDone:
		if len(st.Result) == 0 {
			return batchOut{nil, fmt.Errorf("sacd: job %s done without its result", st.ID)}
		}
		var run stats.Run
		if err := json.Unmarshal(st.Result, &run); err != nil {
			return batchOut{nil, fmt.Errorf("sacd: job %s result: %w", st.ID, err)}
		}
		return batchOut{&run, nil}
	case StateFailed:
		return batchOut{nil, fmt.Errorf("sacd: job %s failed: %s", st.ID, st.Error)}
	default:
		return batchOut{nil, fmt.Errorf("sacd: job %s %s: %s", st.ID, st.State, st.Error)}
	}
}
