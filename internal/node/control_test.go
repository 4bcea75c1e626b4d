package node

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/query"
)

// TestTCPRuntimeControl adds and removes a query through a live topology via
// the control protocol (§3.2): the root applies the change and broadcasts it
// through the intermediate to the local node.
func TestTCPRuntimeControl(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1

	var mu sync.Mutex
	perQuery := map[uint64]int{}
	root, err := ServeRootOptions("127.0.0.1:0", []query.Query{base}, 1, 5*time.Second, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		perQuery[r.QueryID]++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 1, 5*time.Second, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// The local streams in two phases; between them the control client adds
	// a second query and removes it again near the end.
	phase2 := make(chan struct{})
	removed := make(chan struct{})
	controlErr := make(chan error, 2)
	go func() {
		<-phase2
		added := query.MustParse("tumbling(200ms) count key=0")
		added.ID = 2
		controlErr <- Control(root.Addr(), nil, &added, 0)
		<-removed
		// Removal is immediate (matching the engine's semantics), and the
		// control plane is not ordered against the data plane: wait for the
		// root to assemble everything up to the phase boundary, or the
		// remove races the in-flight phase-2 windows and kills them.
		for start := time.Now(); root.Watermark() < 1500; time.Sleep(time.Millisecond) {
			if time.Since(start) > 10*time.Second {
				controlErr <- fmt.Errorf("root watermark stuck at %d", root.Watermark())
				return
			}
		}
		controlErr <- Control(root.Addr(), nil, nil, 2)
	}()

	err = RunLocalTCPOptions(inter.Addr(), 1, 64, DialOptions{}, func(l *LocalSession) error {
		feed := func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if err := l.Process([]event.Event{{Time: int64(i * 10), Value: 1}}); err != nil {
					return err
				}
			}
			return l.AdvanceTo(int64(hi * 10))
		}
		// Control acks when the root applied the delta; the broadcast to
		// this local is asynchronous, and a delta applies at the event time
		// it lands. Wait for the epoch bump before streaming on, or the
		// delta races the feed and the phase boundaries go nondeterministic.
		awaitEpoch := func(above uint64) error {
			for start := time.Now(); l.Epoch() <= above; time.Sleep(time.Millisecond) {
				if time.Since(start) > 5*time.Second {
					return fmt.Errorf("plan delta never reached the local (epoch %d)", l.Epoch())
				}
			}
			return nil
		}
		if err := feed(0, 50); err != nil { // t in [0, 500)
			return err
		}
		epoch := l.Epoch()
		close(phase2)
		if err := <-controlErr; err != nil {
			return err
		}
		if err := awaitEpoch(epoch); err != nil {
			return err
		}
		if err := feed(50, 150); err != nil { // t in [500, 1500)
			return err
		}
		epoch = l.Epoch()
		close(removed)
		if err := <-controlErr; err != nil {
			return err
		}
		if err := awaitEpoch(epoch); err != nil {
			return err
		}
		if err := feed(150, 200); err != nil { // t in [1500, 2000)
			return err
		}
		return l.AdvanceTo(5000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := inter.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := root.Wait(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if perQuery[1] == 0 {
		t.Error("base query produced no windows")
	}
	if perQuery[2] == 0 {
		t.Error("runtime-added query produced no windows")
	}
	// The added query ran for roughly [500, 1500) of event time in 200ms
	// windows: about 5 windows; certainly far fewer than query 1's ~20.
	if perQuery[2] >= perQuery[1] {
		t.Errorf("added query answered %d windows vs base %d; removal did not take effect",
			perQuery[2], perQuery[1])
	}
}

// TestControlRejectsBadCommands checks control-plane error handling.
func TestControlRejectsBadCommands(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	root, err := ServeRootOptions("127.0.0.1:0", []query.Query{base}, 1, time.Second, RootServeOptions{OnResult: func(core.Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	// Removing an unknown query fails: the root closes without ack.
	if err := Control(root.Addr(), nil, nil, 999); err == nil {
		t.Error("removing unknown query succeeded")
	}
	// Adding an invalid query fails.
	bad := query.Query{ID: 7, Pred: query.All(), Type: query.Tumbling} // no funcs
	if err := Control(root.Addr(), nil, &bad, 0); err == nil {
		t.Error("invalid query accepted")
	}
}

// TestRootRejectsControlOnChildStream: catalog changes reach the root only
// from control clients, which broadcast them down the tree. A child that
// sends KindAddQuery on its data stream is a stream error — the root's
// epoch stays put and Wait reports it.
func TestRootRejectsControlOnChildStream(t *testing.T) {
	base := query.MustParse("tumbling(100ms) sum key=0")
	base.ID = 1
	root, err := ServeRootOptions("127.0.0.1:0", []query.Query{base}, 1, 5*time.Second, RootServeOptions{OnResult: func(core.Result) {}})
	if err != nil {
		t.Fatal(err)
	}
	defer root.Close()
	added := query.MustParse("tumbling(200ms) sum key=0")
	added.ID = 2
	c := dialRawChild(t, root.Addr(), 1)
	if err := c.conn.Send(&message.Message{Kind: message.KindAddQuery, From: 1, Queries: []query.Query{added}}); err != nil {
		t.Fatal(err)
	}
	c.goodbye(1)
	c.conn.Close()

	err = root.Wait()
	if err == nil || !strings.Contains(err.Error(), "child 1 stream") {
		t.Errorf("Wait: %v, want the child's stream error", err)
	}
	root.mu.Lock()
	epoch := root.root.Epoch()
	root.mu.Unlock()
	if epoch != 0 {
		t.Fatalf("root epoch %d after a child-sent add-query, want 0", epoch)
	}
}
