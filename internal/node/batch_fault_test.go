package node

import (
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/message"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TestFaultSeverMidBatchReplay kills a batching uplink twice and checks that
// the replay ring plus the root's merge dedup keep partials exactly-once.
//
// The choreography makes real multi-frame KindBatch frames deterministically:
// the link is severed (and reconnects refused) before the child emits a burst
// of windows, so the batcher's pump blocks inside the supervised send while
// the burst accumulates behind it; healing the proxy lets the reconnect
// replay the ring (redelivering phase-1 frames the root already merged) and
// then drain the backlog as MaxFrames-capped batches, which are themselves
// recorded in the ring. The second outage forces a second replay — this time
// redelivering those KindBatch frames whose partials the root has also
// already merged. A lost frame leaves a window short, a double-merged replay
// inflates it; exact per-window sums catch both.
func TestFaultSeverMidBatchReplay(t *testing.T) {
	const hb = 50 * time.Millisecond
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	var mu sync.Mutex
	var results []core.Result
	root, err := ServeRootOptions("127.0.0.1:0", queries, 1, 5*time.Second, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	proxy, err := message.NewFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// NoCutThrough sends every partial through the pump, so an outage blocks
	// the pump (not the session) and the backlog coalesces; MaxFrames 4 makes
	// one 11-frame burst span several batches.
	reg := telemetry.NewRegistry()
	opts := DialOptions{
		Heartbeat:    hb,
		Retry:        RetryPolicy{MaxRetries: 200, BaseDelay: 5 * time.Millisecond, MaxDelay: 25 * time.Millisecond},
		Batch:        true,
		BatchOptions: message.BatcherOptions{MaxFrames: 4, NoCutThrough: true},
		Telemetry:    reg,
	}
	phase2 := make(chan struct{})
	phase2sent := make(chan struct{})
	phase3 := make(chan struct{})
	phase3sent := make(chan struct{})
	errCh := make(chan error, 1)
	go func() {
		errCh <- RunLocalTCPOptions(proxy.Addr(), 1, 64, opts, func(l *LocalSession) error {
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-phase2 // link is down: this burst queues behind the blocked pump
			if err := l.Process(stepEvents(1000, 2000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(2000); err != nil {
				return err
			}
			close(phase2sent)
			<-phase3 // link is down again: same, with batches now in the ring
			if err := l.Process(stepEvents(2000, 3000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(3000); err != nil {
				return err
			}
			close(phase3sent)
			return nil
		})
	}()

	// Phase 1 over a healthy link.
	waitUntil(t, 10*time.Second, "root watermark 1000", func() bool { return root.Watermark() >= 1000 })

	// Outage 1: cut the link and refuse reconnects, then let the child emit
	// phase 2 into the dead uplink. The sleep only biases the backlog to
	// accumulate before healing; correctness never depends on it.
	proxy.RejectNew(true)
	proxy.SeverAll()
	close(phase2)
	<-phase2sent
	time.Sleep(50 * time.Millisecond)
	proxy.RejectNew(false)
	waitUntil(t, 10*time.Second, "root watermark 2000 after first sever", func() bool { return root.Watermark() >= 2000 })

	// Outage 2: the replay ring now holds KindBatch frames from the backlog
	// drain; the next reconnect redelivers them to a root that has already
	// merged their partials.
	proxy.RejectNew(true)
	proxy.SeverAll()
	close(phase3)
	<-phase3sent
	time.Sleep(50 * time.Millisecond)
	proxy.RejectNew(false)
	waitUntil(t, 10*time.Second, "root watermark 3000 after second sever", func() bool { return root.Watermark() >= 3000 })

	if err := <-errCh; err != nil {
		t.Fatalf("local: %v", err)
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v, want nil after successful reconnects", err)
	}
	if ev := root.Evicted(); len(ev) != 0 {
		t.Fatalf("evicted %v, want none", ev)
	}
	if n := len(proxy.Links()); n < 3 {
		t.Fatalf("proxy links: %d, want >= 3 (two reconnects)", n)
	}

	// The scenario is only meaningful if coalescing actually happened: more
	// frames than flushes means some flush carried a multi-frame batch.
	snap := reg.Snapshot()
	frames, flushes := snap.Counters["batch.frames"], snap.Counters["batch.flushes"]
	if frames <= flushes {
		t.Fatalf("batch.frames=%d batch.flushes=%d: no multi-frame batch was ever sent", frames, flushes)
	}
	if rc := snap.Counters["uplink.reconnects"]; rc < 2 {
		t.Fatalf("uplink.reconnects=%d, want >= 2", rc)
	}

	mu.Lock()
	defer mu.Unlock()
	sums := sumByWindow(results)
	if len(sums) != 30 {
		t.Fatalf("windows: %d, want 30 (results %v)", len(sums), sums)
	}
	for start, sum := range sums {
		if sum != 10 {
			t.Errorf("window %d: sum %g, want 10 (duplicate or lost partial across a sever)", start, sum)
		}
	}
}
