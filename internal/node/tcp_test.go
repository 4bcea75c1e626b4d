package node

import (
	"math"
	"sync"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/query"
)

// TestTCPTopologyEndToEnd spins a real root + intermediate + two locals over
// loopback TCP and checks the results against the central engine.
func TestTCPTopologyEndToEnd(t *testing.T) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("tumbling(200ms) median key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}

	var mu sync.Mutex
	var got []core.Result
	root, err := ServeRootOptions("127.0.0.1:0", queries, 1, 5*time.Second, RootServeOptions{OnResult: func(r core.Result) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := ServeIntermediateOptions("127.0.0.1:0", root.Addr(), 1001, 2, 5*time.Second, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// Two locals, each streaming half the global timeline.
	evs := make([]event.Event, 2000)
	for i := range evs {
		evs[i] = event.Event{Time: int64(i), Value: float64(i % 50)}
	}
	var wg sync.WaitGroup
	for li := 0; li < 2; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			err := RunLocalTCPOptions(inter.Addr(), uint32(1+li), 64, DialOptions{}, func(l *LocalSession) error {
				for i := li; i < len(evs); i += 2 {
					if err := l.Process(evs[i : i+1]); err != nil {
						return err
					}
					if i%200 == 0 {
						if err := l.AdvanceTo(evs[i].Time); err != nil {
							return err
						}
					}
				}
				return l.AdvanceTo(5000)
			})
			if err != nil {
				t.Errorf("local %d: %v", li, err)
			}
		}(li)
	}
	wg.Wait()
	if err := inter.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := root.Wait(); err != nil {
		t.Fatal(err)
	}

	// Central reference.
	groups, err := query.Analyze(queries, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(groups, core.Config{})
	e.ProcessBatch(evs)
	e.AdvanceTo(5000)
	want := e.Results()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("got %d results over TCP, want %d", len(got), len(want))
	}
	wm := map[string]core.Result{}
	for _, r := range want {
		wm[resultKey(r)] = r
	}
	for _, g := range got {
		w, ok := wm[resultKey(g)]
		if !ok {
			t.Errorf("unexpected result %s", resultKey(g))
			continue
		}
		if g.Count != w.Count {
			t.Errorf("%s: count %d, want %d", resultKey(g), g.Count, w.Count)
		}
		for i := range w.Values {
			if w.Values[i].OK && math.Abs(g.Values[i].Value-w.Values[i].Value) > 1e-9 {
				t.Errorf("%s %v: %g, want %g", resultKey(g), w.Values[i].Spec, g.Values[i].Value, w.Values[i].Value)
			}
		}
	}
}

// TestTCPChildTimeout exercises the §3.2 liveness timeout: a child that
// connects and goes silent is removed, letting the topology finish.
func TestTCPChildTimeout(t *testing.T) {
	queries := []query.Query{query.MustParse("tumbling(100ms) sum key=0")}
	queries[0].ID = 1
	var mu sync.Mutex
	n := 0
	root, err := ServeRootOptions("127.0.0.1:0", queries, 2, 300*time.Millisecond, RootServeOptions{OnResult: func(core.Result) {
		mu.Lock()
		n++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	// A healthy local.
	done := make(chan error, 1)
	go func() {
		done <- RunLocalTCPOptions(root.Addr(), 1, 64, DialOptions{}, func(l *LocalSession) error {
			for i := 0; i < 1000; i++ {
				if err := l.Process([]event.Event{{Time: int64(i), Value: 1}}); err != nil {
					return err
				}
			}
			return l.AdvanceTo(2000)
		})
	}()
	// A silent child: says hello, then nothing.
	go func() {
		_ = RunLocalTCPOptions(root.Addr(), 2, 64, DialOptions{}, func(l *LocalSession) error {
			time.Sleep(2 * time.Second)
			return nil
		})
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The root should have timed the silent child out and produced the
	// healthy child's windows.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		cur := n
		mu.Unlock()
		if cur >= 10 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("results after timeout: %d, want >= 10", cur)
		default:
			time.Sleep(20 * time.Millisecond)
		}
	}
	root.Close()
}
