package bench

import (
	"fmt"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/operator"
	"desis/internal/query"
)

// The factor experiment measures the factor-window plan optimizer
// (internal/plan/optimize.go, internal/query/factor.go) on a depth-3
// divisibility chain: a 1s tumbling base, sliding windows on its 10s grid,
// and a long sliding window on the 60s grid of those. Unoptimized, every
// query shares one group cut at the 1s gcd and assembles from fine slices;
// optimized, each tier consumes the previous tier's merged supers. The
// experiment runs both plans over the same stream with the two-stacks
// assembly index and with the naive re-fold, and reports events/s,
// window-emission throughput, the exact partial-merge count
// (operator.CountMerges), and an order-independent result hash proving the
// rewrite changed nothing.

// factorSpanMS is the event-time span of one run: long enough for dozens of
// 600s windows so the depth-3 tier does real work.
const factorSpanMS = 3_600_000

// FactorPoint is one assembly index measured with the optimizer off and on
// over the identical stream.
type FactorPoint struct {
	Assembly string `json:"assembly"`
	// OffEventsPerSec / OnEventsPerSec are end-to-end ingest throughputs.
	OffEventsPerSec float64 `json:"off_events_per_sec"`
	OnEventsPerSec  float64 `json:"on_events_per_sec"`
	// OffWindowsPerSec / OnWindowsPerSec are window-emission throughputs.
	OffWindowsPerSec float64 `json:"off_windows_per_sec"`
	OnWindowsPerSec  float64 `json:"on_windows_per_sec"`
	// WindowsSpeedup is OnWindowsPerSec / OffWindowsPerSec.
	WindowsSpeedup float64 `json:"windows_speedup"`
	// OffMerges / OnMerges are exact partial-merge counts for the run;
	// MergeReduction is their ratio (the deterministic win).
	OffMerges      uint64  `json:"off_merges"`
	OnMerges       uint64  `json:"on_merges"`
	MergeReduction float64 `json:"merge_reduction"`
	// Windows is the emitted-window count (identical across legs).
	Windows uint64 `json:"windows"`
	// ResultsMatch is true when both runs emitted the same window multiset.
	ResultsMatch bool `json:"results_match"`
}

// FactorReport is the JSON document desis-bench -exp factor -out writes
// (BENCH_factor.json in the repo root).
type FactorReport struct {
	Events     int           `json:"events_per_measurement"`
	SpanMS     int64         `json:"span_ms"`
	ChainDepth int           `json:"chain_depth"`
	Queries    []string      `json:"queries"`
	Points     []FactorPoint `json:"points"`
	// AllHashesEqual is true when every leg (2 assemblies x on/off) emitted
	// the same window multiset.
	AllHashesEqual bool `json:"all_hashes_equal"`
}

// factorQueries is the depth-3 chain plus a second query on the middle
// period (it joins the existing fed group instead of founding one).
func factorQueries() []query.Query {
	mk := func(id uint64, typ query.WindowType, length, slide int64, funcs ...operator.Func) query.Query {
		fs := make([]operator.FuncSpec, len(funcs))
		for i, f := range funcs {
			fs[i] = operator.FuncSpec{Func: f}
		}
		return query.Query{ID: id, Pred: query.All(), Type: typ, Measure: query.Time,
			Length: length, Slide: slide, Funcs: fs}
	}
	return []query.Query{
		mk(1, query.Tumbling, 1000, 0, operator.Sum),
		mk(2, query.Sliding, 60_000, 10_000, operator.Sum, operator.Average),
		mk(3, query.Sliding, 600_000, 60_000, operator.Min),
		mk(4, query.Sliding, 120_000, 10_000, operator.Max),
	}
}

// factorRun measures one leg. Values are small integers so every aggregate
// is exact in float64 and the result hash is independent of merge order.
func factorRun(events int, naive, optimize bool) (evPerSec, winPerSec float64, merges, windows, hash uint64, err error) {
	qs := factorQueries()
	groups, err := query.Analyze(qs, query.Options{Optimize: optimize})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	var h uint64
	var wins uint64
	e := core.New(groups, core.Config{
		NaiveAssembly: naive,
		Optimize:      optimize,
		OnResult: func(r core.Result) {
			h += cardinalityResultHash(r)
			wins++
		},
	})
	evs := make([]event.Event, events)
	for i := range evs {
		evs[i] = event.Event{
			Time:  1 + int64(i)*factorSpanMS/int64(events),
			Value: float64(i % 100),
		}
	}
	operator.CountMerges(true)
	start := time.Now()
	e.ProcessBatch(evs)
	e.AdvanceTo(factorSpanMS + 1_200_000)
	elapsed := time.Since(start)
	merges = operator.MergeCalls()
	operator.CountMerges(false)
	return float64(events) / elapsed.Seconds(),
		float64(wins) / elapsed.Seconds(),
		merges, wins, h, nil
}

// RunFactorReport executes the factor-window sweep and returns the
// structured report.
func RunFactorReport(cfg Config) (*FactorReport, error) {
	cfg = cfg.withDefaults()
	events := scaleEvents(cfg.Events, 1)
	rep := &FactorReport{
		Events:         events,
		SpanMS:         factorSpanMS,
		ChainDepth:     3,
		AllHashesEqual: true,
	}
	for _, q := range factorQueries() {
		rep.Queries = append(rep.Queries, q.String())
	}
	var refHash uint64
	var haveRef bool
	for _, asm := range []struct {
		name  string
		naive bool
	}{{"two-stacks", false}, {"naive", true}} {
		offEv, offWin, offMerges, offWins, offHash, err := factorRun(events, asm.naive, false)
		if err != nil {
			return nil, err
		}
		onEv, onWin, onMerges, onWins, onHash, err := factorRun(events, asm.naive, true)
		if err != nil {
			return nil, err
		}
		if offWins == 0 {
			return nil, fmt.Errorf("factor: %s leg emitted no windows; the comparison is vacuous", asm.name)
		}
		if !haveRef {
			refHash, haveRef = offHash, true
		}
		if offHash != refHash || onHash != refHash || offWins != onWins {
			rep.AllHashesEqual = false
		}
		p := FactorPoint{
			Assembly:         asm.name,
			OffEventsPerSec:  offEv,
			OnEventsPerSec:   onEv,
			OffWindowsPerSec: offWin,
			OnWindowsPerSec:  onWin,
			OffMerges:        offMerges,
			OnMerges:         onMerges,
			Windows:          offWins,
			ResultsMatch:     offHash == onHash && offWins == onWins,
		}
		if offWin > 0 {
			p.WindowsSpeedup = onWin / offWin
		}
		if onMerges > 0 {
			p.MergeReduction = float64(offMerges) / float64(onMerges)
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// Factor renders the factor-window experiment as a table.
func Factor(cfg Config) (*Table, error) {
	rep, err := RunFactorReport(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "factor", Title: "Factor-window rewrite: depth-3 chain, optimizer off vs on", XLabel: "assembly (0=two-stacks 1=naive)", YLabel: "windows/s | merge ratio"}
	for i, p := range rep.Points {
		x := float64(i)
		t.Add("off-win/s", x, p.OffWindowsPerSec)
		t.Add("on-win/s", x, p.OnWindowsPerSec)
		t.Add("speedup", x, p.WindowsSpeedup)
		t.Add("merge-reduction", x, p.MergeReduction)
		match := 0.0
		if p.ResultsMatch {
			match = 1
		}
		t.Add("results-match", x, match)
	}
	return t, nil
}
