package main

import (
	"time"

	"desis"
	"desis/internal/operator"
	"desis/internal/plan"
)

// runEngineRep runs one repetition of a single-engine workload: a fresh
// engine, closed loop, one ProcessBatch per step followed by AdvanceTo to
// the batch's last timestamp, so the engine sees regular punctuations.
func runEngineRep(env *repEnv) (repOut, []rec, error) {
	out := repOut{samples: map[string]int{}}
	tr := env.tr
	col := newCollector(len(env.ref.recs))
	base := liveHeap()
	if tr != nil {
		// plan.New is what NewEngine runs before building the engine;
		// timing it on its own splits plan work out of setup.
		t0 := time.Now()
		if _, err := plan.New(env.queries, plan.Options{Optimize: true}); err != nil {
			return out, nil, err
		}
		tr.add("plan.build", -1, t0, time.Now())
		out.layers = map[string]float64{"plan.build_ms": msec(time.Since(t0))}
		operator.CountMerges(true)
		defer operator.CountMerges(false)
	}

	t0 := time.Now()
	eng, err := desis.NewEngine(env.queries, desis.Options{OnResult: col.onResult})
	if err != nil {
		return out, nil, err
	}
	out.setup = time.Since(t0)

	cpu0 := cpuTime()
	start := time.Now()
	var batchNS, advNS []float64
	var busy time.Duration
	parent := -1
	if tr != nil {
		parent = tr.add("rep", -1, start, start)
	}
	drainFrom := 0
	for i, s := range env.steps {
		if i == len(env.steps)-1 {
			drainFrom = len(col.recs)
		}
		t1 := time.Now()
		col.callStart = int64(t1.Sub(col.origin))
		eng.ProcessBatch(s.evs)
		t2 := time.Now()
		col.callStart = int64(t2.Sub(col.origin))
		eng.AdvanceTo(s.adv)
		if tr != nil {
			t3 := time.Now()
			tr.add("core.Engine.ProcessBatch", parent, t1, t2)
			tr.add("core.Engine.AdvanceTo", parent, t2, t3)
			batchNS = append(batchNS, float64(t2.Sub(t1)))
			advNS = append(advNS, float64(t3.Sub(t2)))
			busy += t3.Sub(t1)
		}
	}
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.events = env.events
	out.heap = liveHeap() - base
	// Windows the final drain closes are emitted in one burst after the
	// stream ends; they are checked but carry no freshness sample.
	for i := drainFrom; i < len(col.recs); i++ {
		col.recs[i].fresh = noFresh
	}
	if tr == nil {
		out.setFreshness(col.recs)
	}

	if tr != nil {
		tr.spans[parent].end = time.Since(tr.origin)
		st := eng.Stats()
		ev := float64(env.events)
		out.samples["core.batch_p99_us"], out.samples["core.advance_p99_us"] = len(batchNS), len(advNS)
		out.layers["core.process_ns_per_event"] = float64(busy) / ev
		out.layers["core.batch_p99_us"] = quantile(batchNS, 0.99) / 1e3
		out.layers["core.advance_p99_us"] = quantile(advNS, 0.99) / 1e3
		out.layers["core.calculations_per_event"] = float64(st.Calculations) / ev
		out.layers["core.slices_per_kevent"] = float64(st.Slices) / ev * 1e3
		out.layers["operator.merges_per_window"] = float64(operator.MergeCalls()) / float64(max(len(col.recs), 1))
		// No messages and no nodes in a single engine: these layers do no
		// work on this workload.
		for _, k := range []string{"message.bytes_per_event", "message.bytes_per_event.partial",
			"message.bytes_per_event.watermark", "message.frames_per_kevent", "message.encode_ns_per_frame",
			"message.decode_ns_per_frame", "node.inter_handle_ns_per_msg", "node.root_handle_ns_per_msg"} {
			out.layers[k] = 0
		}
	}
	return out, col.recs, nil
}

func msec(d time.Duration) float64 { return float64(d) / 1e6 }
