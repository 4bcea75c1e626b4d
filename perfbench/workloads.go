package main

import (
	"fmt"

	"desis/internal/gen"
	"desis/internal/query"
)

// workload is one named input mix. The seed argument drives only the event
// stream; catalogs are fixed so every seed measures the same query set.
type workload struct {
	// tree selects the TCP local → intermediate → root topology; otherwise
	// one desis.Engine runs the catalog.
	tree bool
	// rate is the offered global input rate in events/s of a tree's paced
	// leg; its closed leg and the engine are fed closed loop.
	rate float64
	// events is the stream length of one repetition.
	events int
	// batch is the events per ProcessBatch call (engine) or per local per
	// lockstep round (tree).
	batch int
	// drain is how far past the last event the final AdvanceTo moves event
	// time, enough to close the longest window.
	drain   int64
	catalog func() []query.Query
	stream  func(seed int64) gen.StreamConfig
}

// treeLocals is the number of locals under the one intermediate.
const treeLocals = 2

// The trees' offered rates. tree-median's is about half of its closed-loop
// capacity on a 2-vCPU host (0.86–0.94M events/s), tree-avg's about a
// quarter (2.2–2.7M). tree-avg's feeder goroutine runs both locals' ingest
// (about 0.42 µs per event); at half capacity it is busy half the time,
// runs late on every stall of the host, and the freshness tail followed.
// The paced leg gives CPU per event and freshness, which spread more under
// a closed loop; the closed leg gives throughput.
const (
	avgRate    = 600_000
	medianRate = 400_000
)

var workloads = map[string]workload{
	// Fig 13a: the real-world mix on one engine. All work is in core and
	// operator: 1000 queries of all four window types, count measures,
	// markers and session gaps in the stream.
	"engine-mix": {
		events: 400_000,
		batch:  256,
		drain:  20_000,
		catalog: func() []query.Query {
			return gen.Queries(1000, gen.QueryConfig{
				Seed: 1000, Keys: 10, AllowCount: true,
				Types: []query.WindowType{query.Tumbling, query.Sliding, query.Session, query.UserDefined},
			})
		},
		stream: func(seed int64) gen.StreamConfig {
			return gen.StreamConfig{Seed: seed, Keys: 10, IntervalMS: 1, MarkerEvery: 2000, GapEvery: 5000, GapMS: 3000}
		},
	},
	// Fig 7a: average, a decomposable function. Partials are a few bytes,
	// so ingest at the locals dominates.
	"tree-avg": {
		tree:    true,
		rate:    avgRate,
		events:  1_000_000,
		batch:   256,
		drain:   70_000,
		catalog: func() []query.Query { return treeCatalog("average") },
		stream:  treeStream,
	},
	// Fig 7b: median and the 99th percentile, non-decomposable. Partials
	// carry sorted runs, moving cost into message and node merging.
	"tree-median": {
		tree:    true,
		rate:    medianRate,
		events:  400_000,
		batch:   256,
		drain:   70_000,
		catalog: func() []query.Query { return treeCatalog("median,quantile(0.99)") },
		stream:  treeStream,
	},
}

// treeCatalog is Fig 7a/7b's shape: 8 keys × {tumbling(1s), tumbling(5s),
// sliding(10s,1s), sliding(60s,5s)}, every query computing funcs.
func treeCatalog(funcs string) []query.Query {
	windows := []string{"tumbling(1s)", "tumbling(5s)", "sliding(10s,1s)", "sliding(60s,5s)"}
	var qs []query.Query
	for key := 0; key < 8; key++ {
		for _, w := range windows {
			q := query.MustParse(fmt.Sprintf("%s %s key=%d", w, funcs, key))
			q.ID = uint64(len(qs) + 1)
			qs = append(qs, q)
		}
	}
	return qs
}

// treeStream is one global stream with strictly increasing timestamps; the
// feeder deals it round-robin to the locals.
func treeStream(seed int64) gen.StreamConfig {
	return gen.StreamConfig{Seed: seed, Keys: 8, IntervalMS: 1}
}
