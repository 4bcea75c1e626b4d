package bench

import (
	"runtime"
	"time"

	"desis/internal/core"
	"desis/internal/gen"
	"desis/internal/operator"
	"desis/internal/query"
)

// The assembly ablation isolates the amortized window-assembly index
// (internal/core/swag.go): n overlapping sliding windows share one
// query-group, so every slide punctuation assembles n windows from the same
// closed-slice ring. The naive strategy re-folds every covering slice per
// window — O(n * window/slide) merges per punctuation — while the index
// answers each window with O(1) amortized merges.

// AssemblyPoint is one measured sweep point of the assembly ablation.
type AssemblyPoint struct {
	// Windows is the number of overlapping sliding queries in the group.
	Windows int `json:"windows"`
	// NaiveEventsPerSec / IndexedEventsPerSec are end-to-end ingest
	// throughputs (window assembly runs inline with ingestion).
	NaiveEventsPerSec   float64 `json:"naive_events_per_sec"`
	IndexedEventsPerSec float64 `json:"indexed_events_per_sec"`
	// NaiveWindowsPerSec / IndexedWindowsPerSec are window-emission
	// throughputs: windows emitted divided by total run time.
	NaiveWindowsPerSec   float64 `json:"naive_windows_per_sec"`
	IndexedWindowsPerSec float64 `json:"indexed_windows_per_sec"`
	// WindowsSpeedup is IndexedWindowsPerSec / NaiveWindowsPerSec.
	WindowsSpeedup float64 `json:"windows_speedup"`
	// NaiveAllocsPerEvent / IndexedAllocsPerEvent are heap allocations per
	// ingested event over the whole run (runtime.MemStats.Mallocs delta).
	NaiveAllocsPerEvent   float64 `json:"naive_allocs_per_event"`
	IndexedAllocsPerEvent float64 `json:"indexed_allocs_per_event"`
}

// AssemblyReport is the JSON document desis-bench -exp ablation-assembly
// -out writes (BENCH_assembly.json in the repo root).
type AssemblyReport struct {
	// Events is the per-measurement stream length.
	Events int `json:"events_per_measurement"`
	// SlideMS is the common slide of the swept queries.
	SlideMS int64 `json:"slide_ms"`
	// Points holds one entry per overlapping-window count.
	Points []AssemblyPoint `json:"points"`
}

// assemblyQueries builds n sliding time windows over one key that all land
// in one query-group: same slide, growing lengths, decomposable functions.
func assemblyQueries(n int) []query.Query {
	qs := make([]query.Query, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, query.Query{
			ID: uint64(i + 1), Pred: query.All(), Type: query.Sliding,
			Measure: query.Time,
			Length:  2000 + int64(i)*500, Slide: 100,
			Funcs: []operator.FuncSpec{{Func: operator.Average}},
		})
	}
	return qs
}

// assemblyRun measures one engine configuration: events/s, windows/s, and
// allocations per event.
func assemblyRun(qs []query.Query, events int, naive bool) (evPerSec, winPerSec, allocsPerEv float64, err error) {
	groups, err := query.Analyze(qs, query.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	e := core.New(groups, core.Config{OnResult: func(core.Result) {}, NaiveAssembly: naive})
	s := gen.NewStream(gen.StreamConfig{Seed: 21, Keys: 1, IntervalMS: 1})
	evs := s.Events(events)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	e.ProcessBatch(evs)
	e.AdvanceTo(s.Now() + 60_000)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	st := e.Stats()
	return float64(events) / elapsed.Seconds(),
		float64(st.Windows) / elapsed.Seconds(),
		float64(after.Mallocs-before.Mallocs) / float64(events),
		nil
}

// RunAssemblyReport executes the assembly ablation sweep and returns the
// structured report.
func RunAssemblyReport(cfg Config) (*AssemblyReport, error) {
	cfg = cfg.withDefaults()
	events := scaleEvents(cfg.Events, 1)
	rep := &AssemblyReport{Events: events, SlideMS: 100}
	for _, n := range []int{4, 16, 32, 64} {
		qs := assemblyQueries(n)
		nEv, nWin, nAllocs, err := assemblyRun(qs, events, true)
		if err != nil {
			return nil, err
		}
		iEv, iWin, iAllocs, err := assemblyRun(qs, events, false)
		if err != nil {
			return nil, err
		}
		p := AssemblyPoint{
			Windows:               n,
			NaiveEventsPerSec:     nEv,
			IndexedEventsPerSec:   iEv,
			NaiveWindowsPerSec:    nWin,
			IndexedWindowsPerSec:  iWin,
			NaiveAllocsPerEvent:   nAllocs,
			IndexedAllocsPerEvent: iAllocs,
		}
		if nWin > 0 {
			p.WindowsSpeedup = iWin / nWin
		}
		rep.Points = append(rep.Points, p)
	}
	return rep, nil
}

// AblationAssembly renders the assembly ablation as a table experiment.
func AblationAssembly(cfg Config) (*Table, error) {
	rep, err := RunAssemblyReport(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: "ablation-assembly", Title: "Amortized window assembly vs per-window re-fold", XLabel: "overlapping sliding windows", YLabel: "windows/s"}
	for _, p := range rep.Points {
		t.Add("indexed", float64(p.Windows), p.IndexedWindowsPerSec)
		t.Add("naive", float64(p.Windows), p.NaiveWindowsPerSec)
		t.Add("speedup", float64(p.Windows), p.WindowsSpeedup)
	}
	return t, nil
}
