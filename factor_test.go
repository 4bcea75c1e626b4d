package desis

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"desis/internal/core"
	"desis/internal/plan"
)

// Factor-optimizer differential tests: the rewrite must be invisible in the
// results. Every workload here runs twice — Optimize on and off — with the
// two-stacks assembly index and with the naive reference re-fold, with
// out-of-order input and mid-stream plan churn, and the two result sets
// must match exactly. Values are small integers and the workloads avoid
// product/geomean, so every aggregate is exact in float64 and the
// comparison is bitwise, not approximate.

// factorWorkload is one randomized correlated-window workload: a divisibility
// chain (base tumbling → medium sliding → long sliding) the optimizer can
// rewrite, plus bystanders it must not touch (a median query, a different
// key, a disjoint predicate).
type factorWorkload struct {
	base    int64 // base slide (ms) of the chain's feeder
	queries []Query
	added   []Query // admitted mid-stream
	removed []uint64
	events  []Event
	advTo   int64
}

func buildFactorWorkload(rng *rand.Rand, ooo bool) factorWorkload {
	b := []int64{200, 500, 1000}[rng.Intn(3)]
	k2 := int64(6 + rng.Intn(3))
	j2 := int64(3 + rng.Intn(2))
	p2 := b * k2
	k3 := int64(6 + rng.Intn(3))
	j3 := int64(3 + rng.Intn(2))
	p3 := p2 * k3

	w := factorWorkload{base: b}
	w.queries = []Query{
		{ID: 1, Key: 0, Pred: All(), Type: Tumbling, Measure: Time, Length: b,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 2, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}, {Func: Average}, {Func: Max}}},
		{ID: 3, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: j3 * p3, Slide: p3,
			Funcs: []FuncSpec{{Func: Min}, {Func: CountFn}}},
		// Median retains values (non-decomposable sort): never fed.
		{ID: 4, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 4 * b, Slide: 2 * b,
			Funcs: []FuncSpec{{Func: Median}}},
		// Different key: its own bucket, its own (possible) chain.
		{ID: 5, Key: 1, Pred: All(), Type: Tumbling, Measure: Time, Length: b,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 6, Key: 1, Pred: All(), Type: Sliding, Measure: Time, Length: j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}, {Func: Min}}},
		// Disjoint predicate on key 0: a second context/group, not mergeable.
		{ID: 7, Key: 0, Pred: Above(90), Type: Tumbling, Measure: Time, Length: 2 * b,
			Funcs: []FuncSpec{{Func: CountFn}}},
	}
	// Mid-stream churn: an eligible long window joins (or founds) a fed
	// group while the chain is running, and the feeder's own raw member
	// retires — the feed keeps flowing off the injected period grid.
	w.added = []Query{
		{ID: 8, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 2 * j2 * p2, Slide: p2,
			Funcs: []FuncSpec{{Func: Sum}}},
	}
	w.removed = []uint64{1}

	n := 2500
	t := int64(1000)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(int(b/2)) + 1)
		ev := Event{Time: t, Key: uint32(rng.Intn(2)), Value: float64(rng.Intn(100))}
		w.events = append(w.events, ev)
	}
	if ooo {
		// Push a fraction of events late, bounded well inside the horizon,
		// keeping the stream admissible for strict-order runs' comparison
		// (both legs see the identical perturbed sequence).
		for i := range w.events {
			if rng.Intn(5) == 0 {
				w.events[i].Time -= int64(rng.Intn(int(2 * b)))
				if w.events[i].Time < 1000 {
					w.events[i].Time = 1000
				}
			}
		}
	}
	w.advTo = t + 2*j3*p3
	return w
}

// runFactor replays the workload through one engine configuration. It
// builds the engine as NewEngine does, except that naive swaps in the
// reference assembly index, which no public option selects.
func runFactor(t *testing.T, w factorWorkload, opts Options, naive bool) ([]Result, string) {
	t.Helper()
	p, err := plan.New(assignIDs(w.queries), plan.Options{Dedup: opts.Dedup, Optimize: opts.optimizeOn()})
	if err != nil {
		t.Fatalf("plan.New: %v", err)
	}
	cfg := opts.coreConfig()
	cfg.NaiveAssembly = naive
	e := &Engine{e: core.NewFromPlan(p, cfg)}
	third := len(w.events) / 3
	e.ProcessBatch(w.events[:third])
	for _, q := range w.added {
		if _, err := e.AddQuery(q); err != nil {
			t.Fatalf("AddQuery(%d): %v", q.ID, err)
		}
	}
	e.ProcessBatch(w.events[third : 2*third])
	for _, id := range w.removed {
		if err := e.RemoveQuery(id); err != nil {
			t.Fatalf("RemoveQuery(%d): %v", id, err)
		}
	}
	e.ProcessBatch(w.events[2*third:])
	e.AdvanceTo(w.advTo)
	return e.Results(), e.DescribePlan()
}

func sortFactorResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.QueryID != b.QueryID {
			return a.QueryID < b.QueryID
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End < b.End
	})
}

// compareExact demands bitwise-equal results: the workload's integer values
// keep every supported aggregate exact, so the rewritten plan may not drift
// even in the last ulp.
func compareExact(t *testing.T, got, want []Result) {
	t.Helper()
	sortFactorResults(got)
	sortFactorResults(want)
	if len(got) != len(want) {
		t.Fatalf("optimized plan emitted %d results, unoptimized %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		id := fmt.Sprintf("q%d key=%d [%d,%d)", w.QueryID, w.Key, w.Start, w.End)
		if g.QueryID != w.QueryID || g.Key != w.Key || g.Start != w.Start || g.End != w.End {
			t.Fatalf("result %d: got q%d key=%d [%d,%d), want %s", i, g.QueryID, g.Key, g.Start, g.End, id)
		}
		if g.Count != w.Count {
			t.Fatalf("%s: count %d, want %d", id, g.Count, w.Count)
		}
		if len(g.Values) != len(w.Values) {
			t.Fatalf("%s: %d values, want %d", id, len(g.Values), len(w.Values))
		}
		for j := range w.Values {
			gv, wv := g.Values[j], w.Values[j]
			if gv.OK != wv.OK || (wv.OK && gv.Value != wv.Value) {
				t.Fatalf("%s %v: got (%v, %v), want (%v, %v)", id, wv.Spec, gv.Value, gv.OK, wv.Value, wv.OK)
			}
		}
	}
}

// TestFactorRewriteDifferential proves the rewrite invisible: randomized
// correlated workloads with out-of-order input and mid-stream plan churn
// produce bitwise-identical results with the optimizer on and off, with
// the two-stacks index and with the naive re-fold.
func TestFactorRewriteDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, naive := range []bool{false, true} {
			for _, ooo := range []bool{false, true} {
				seed, naive, ooo := seed, naive, ooo
				index := "two-stacks"
				if naive {
					index = "naive"
				}
				t.Run(fmt.Sprintf("seed=%d/%s/ooo=%v", seed, index, ooo), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					w := buildFactorWorkload(rng, ooo)
					var opts Options
					if ooo {
						opts.ReorderHorizon = time.Duration(4*w.base) * time.Millisecond
					}
					off := opts
					off.Optimize = OptimizeOff
					want, offPlan := runFactor(t, w, off, naive)
					got, onPlan := runFactor(t, w, opts, naive)
					if strings.Contains(offPlan, "fed-from") {
						t.Fatalf("unoptimized plan contains fed groups:\n%s", offPlan)
					}
					if !strings.Contains(onPlan, "fed-from") {
						t.Fatalf("optimized plan rewrote nothing:\n%s", onPlan)
					}
					compareExact(t, got, want)
				})
			}
		}
	}
}

// TestFactorChainDepth pins the chain shape: the long window feeds from the
// medium fed group, not from the raw base group, so super-slices coarsen at
// every level.
func TestFactorChainDepth(t *testing.T) {
	queries := []Query{
		{ID: 1, Key: 0, Pred: All(), Type: Tumbling, Measure: Time, Length: 1000,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 2, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 60_000, Slide: 10_000,
			Funcs: []FuncSpec{{Func: Sum}}},
		{ID: 3, Key: 0, Pred: All(), Type: Sliding, Measure: Time, Length: 600_000, Slide: 60_000,
			Funcs: []FuncSpec{{Func: Sum}}},
	}
	e, err := NewEngine(queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	desc := e.DescribePlan()
	if !strings.Contains(desc, "fed-from=0") || !strings.Contains(desc, "fed-from=1") {
		t.Fatalf("want a depth-3 feed chain (group 1 fed from 0, group 2 fed from 1), got:\n%s", desc)
	}
}

// TestFactorSnapshotRoundTrip checkpoints an optimized engine mid-stream and
// resumes it: the feed topology relinks from the plan and the production
// bounds restore, so the resumed run matches an uninterrupted one exactly.
func TestFactorSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := buildFactorWorkload(rng, false)
	w.added = nil // snapshot pairs with the initial query set
	w.removed = nil

	full, err := NewEngine(w.queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	full.ProcessBatch(w.events)
	full.AdvanceTo(w.advTo)
	want := full.Results()

	e, err := NewEngine(w.queries, Options{})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	e.ProcessBatch(w.events[:len(w.events)/2])
	partial := e.Results()
	snap := e.Snapshot()
	e2, err := RestoreEngine(w.queries, Options{}, snap)
	if err != nil {
		t.Fatalf("RestoreEngine: %v", err)
	}
	e2.ProcessBatch(w.events[len(w.events)/2:])
	e2.AdvanceTo(w.advTo)
	got := append(partial, e2.Results()...)
	compareExact(t, got, want)
}
