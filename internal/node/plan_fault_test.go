package node

import (
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
)

// TestPlanResyncEpochDiff pins the resync decision table: a child whose epoch
// is within the history log gets exactly the missing delta suffix; a fresh
// child (NoEpoch), a child from a different lineage (epoch ahead of the
// root), or one staler than the log's retention gets the full plan.
func TestPlanResyncEpochDiff(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	p, err := plan.New([]query.Query{base}, plan.Options{Decentralized: true})
	if err != nil {
		t.Fatal(err)
	}
	hist := plan.NewHistory(p)
	q2 := query.MustParse("tumbling(200ms) sum key=0")
	q2.ID = 2
	q3 := query.MustParse("sliding(300ms,100ms) max key=0")
	q3.ID = 3
	if err := hist.Apply(hist.Plan().AddDelta(q2)); err != nil {
		t.Fatal(err)
	}
	if err := hist.Apply(hist.Plan().AddDelta(q3)); err != nil {
		t.Fatal(err)
	}
	if err := hist.Apply(hist.Plan().RemoveDelta(3)); err != nil {
		t.Fatal(err)
	}
	if hist.Epoch() != 3 {
		t.Fatalf("history epoch %d, want 3", hist.Epoch())
	}

	// Up to date: an empty delta message, not a plan resend.
	if m := planResync(hist, 3); m.Kind != message.KindPlanDelta || len(m.Deltas) != 0 {
		t.Errorf("current child: kind %d with %d deltas, want empty delta message", m.Kind, len(m.Deltas))
	}
	// Stale but within the log: exactly the missing suffix, oldest first.
	if m := planResync(hist, 1); m.Kind != message.KindPlanDelta {
		t.Errorf("stale child: kind %d, want KindPlanDelta", m.Kind)
	} else if len(m.Deltas) != 2 || m.Deltas[0].Epoch != 2 || m.Deltas[1].Epoch != 3 {
		t.Errorf("stale child: got deltas %v, want epochs [2 3]", m.Deltas)
	}
	// Fresh child: full plan at the current epoch.
	if m := planResync(hist, message.NoEpoch); m.Kind != message.KindPlanState || m.Plan == nil || m.Plan.Epoch != 3 {
		t.Errorf("fresh child: kind %d, want full plan at epoch 3", m.Kind)
	}
	// A claimed epoch ahead of the root (different lineage, e.g. the root
	// restarted) fails closed to a full plan.
	if m := planResync(hist, 99); m.Kind != message.KindPlanState {
		t.Errorf("future-epoch child: kind %d, want KindPlanState", m.Kind)
	}
	// Retention bounds the diff: once the log is trimmed past the child's
	// epoch, only the full plan can resync it.
	hist.SetRetention(1)
	if m := planResync(hist, 1); m.Kind != message.KindPlanState {
		t.Errorf("too-stale child: kind %d, want KindPlanState after retention trim", m.Kind)
	}
	if m := planResync(hist, 2); m.Kind != message.KindPlanDelta || len(m.Deltas) != 1 || m.Deltas[0].Epoch != 3 {
		t.Errorf("child at the retention edge: want the single retained delta")
	}
}

// TestStaleEpochReconnectResync is the fault-suite acceptance check for the
// epoch protocol: a child's link is severed, the catalog changes while it is
// down (a query added, another added and removed), and on reconnect the
// child's re-handshake reports its stale epoch and receives the missing plan
// deltas. The topology must converge — the reconnected child answers the
// runtime-added query from the same event time as the never-disconnected
// survivor, and every window carries both children's contributions, exactly
// as a run without the fault would.
func TestStaleEpochReconnectResync(t *testing.T) {
	const hb = 50 * time.Millisecond
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1

	var mu sync.Mutex
	wins := map[uint64]map[int64]float64{} // query id → window start → value
	root, err := ServeRootOptions("127.0.0.1:0", []query.Query{base}, 2, 5*time.Second, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		defer mu.Unlock()
		for _, v := range r.Values {
			if v.OK {
				m := wins[r.QueryID]
				if m == nil {
					m = map[int64]float64{}
					wins[r.QueryID] = m
				}
				m[r.Start] = v.Value
			}
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { root.Close() })
	proxy, err := message.NewFaultProxy(root.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// An aggressive retry policy so the reconnect lands quickly once the
	// proxy accepts connections again.
	opts := DialOptions{
		Heartbeat: hb,
		Retry:     RetryPolicy{MaxRetries: 200, BaseDelay: 20 * time.Millisecond, MaxDelay: 100 * time.Millisecond},
	}
	sessCh := make(chan *LocalSession, 2)
	phase2 := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 3)

	// The survivor (id 1) connects directly; the victim (id 2) goes through
	// the fault proxy so its link can be cut. Both stream phase 1, park until
	// the plan churn settles, then stream phase 2.
	run := func(id uint32, addr string) {
		defer wg.Done()
		errs[id] = RunLocalTCPOptions(addr, id, 64, opts, func(l *LocalSession) error {
			sessCh <- l
			if err := l.Process(stepEvents(0, 1000, 10)); err != nil {
				return err
			}
			if err := l.AdvanceTo(1000); err != nil {
				return err
			}
			<-phase2
			if err := l.Process(stepEvents(1000, 2000, 10)); err != nil {
				return err
			}
			return l.AdvanceTo(2000)
		})
	}
	wg.Add(2)
	//lint:ignore goroutinelife run defers wg.Done; the func-variable indirection hides the join edge from the analyzer
	go run(1, root.Addr())
	//lint:ignore goroutinelife run defers wg.Done (see above)
	go run(2, proxy.Addr())
	sessions := []*LocalSession{<-sessCh, <-sessCh}

	// Phase 1 complete: both children contributed up to t=1000.
	waitUntil(t, 10*time.Second, "root watermark 1000", func() bool { return root.Watermark() >= 1000 })

	// Cut the victim's link: the socket dies and reconnects are refused, so
	// the deltas broadcast next can only reach it through a later resync.
	proxy.RejectNew(true)
	proxy.SeverAll()

	// Catalog churn while the victim is down: add query 2, then add query 3
	// and remove it again — three deltas, leaving the root at epoch 3 with a
	// tombstone the resync must replay faithfully.
	added := query.MustParse("tumbling(200ms) sum key=0")
	added.ID = 2
	if err := Control(root.Addr(), nil, &added, 0); err != nil {
		t.Fatal(err)
	}
	ephemeral := query.MustParse("sliding(300ms,100ms) max key=0")
	ephemeral.ID = 3
	if err := Control(root.Addr(), nil, &ephemeral, 0); err != nil {
		t.Fatal(err)
	}
	if err := Control(root.Addr(), nil, nil, 3); err != nil {
		t.Fatal(err)
	}

	// Heal the link. The victim's supervised uplink re-dials, its hello
	// carries the stale epoch, and the root answers with the delta suffix.
	proxy.RejectNew(false)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if sessions[0].Epoch() == 3 && sessions[1].Epoch() == 3 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sessions[0].Epoch() != 3 || sessions[1].Epoch() != 3 {
		t.Fatalf("children stuck at epochs %d and %d, want 3 and 3", sessions[0].Epoch(), sessions[1].Epoch())
	}

	// Phase 2: both children stream on; the reconnected victim must answer
	// the runtime-added query too.
	close(phase2)
	wg.Wait()
	for id := uint32(1); id <= 2; id++ {
		if errs[id] != nil {
			t.Fatalf("child %d: %v", id, errs[id])
		}
	}
	if err := root.Wait(); err != nil {
		t.Fatalf("root.Wait: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	// Query 1 ran throughout: 20 windows of 100ms, 10 events × 2 children.
	if len(wins[1]) != 20 {
		t.Fatalf("query 1: %d windows, want 20 (%v)", len(wins[1]), wins[1])
	}
	for start, sum := range wins[1] {
		if sum != 20 {
			t.Errorf("query 1 window %d: sum %g, want 20", start, sum)
		}
	}
	// Query 2 was added while the victim was down, before any phase-2
	// events: both children answer all five 200ms windows of [1000, 2000) —
	// exactly what a run without the link fault produces.
	if len(wins[2]) != 5 {
		t.Fatalf("query 2: %d windows, want 5 (%v)", len(wins[2]), wins[2])
	}
	for start, sum := range wins[2] {
		if start < 1000 || sum != 40 {
			t.Errorf("query 2 window %d: sum %g, want 40 in [1000, 2000)", start, sum)
		}
	}
	// Query 3 lived only while the stream was parked: no windows.
	if n := len(wins[3]); n != 0 {
		t.Errorf("removed query 3 answered %d windows, want none", n)
	}
}
