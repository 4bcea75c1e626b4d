package main

import (
	"errors"
	"fmt"
	"sort"
	"syscall"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/operator"
	"desis/internal/plan"
	"desis/internal/query"
)

const (
	interID = 100
	// liveness is the nodes' child liveness timeout, desis-node's default.
	liveness = 30 * time.Second
	// resultWait bounds how long a repetition waits for the root's last
	// window; a repetition that hits it has missing windows.
	resultWait = 30 * time.Second
	// hangMargin is how far a run may overrun --seconds before it is
	// aborted as hung: a repetition in progress plus a wait for the root.
	hangMargin = resultWait + 60*time.Second
	// inFlight is how many rounds a closed-loop feeder may run ahead of the
	// root's output. The bound keeps the socket buffers from filling, so
	// the wall time up to the root's last window measures the tree's
	// processing rather than the draining of a backlog.
	inFlight = 8
)

// treeRound is one lockstep round: each local's batch of the global stream,
// then every local advances to t, the round's last timestamp.
type treeRound struct {
	local [treeLocals][]event.Event
	t     int64
}

// dealRounds cuts the global stream into rounds of batch events per local,
// dealt round-robin in event-time order, plus a final empty round that
// advances to drain. It also returns the same input as reference steps.
func dealRounds(evs []event.Event, batch int, drain int64) ([]treeRound, []feedStep) {
	var rounds []treeRound
	var steps []feedStep
	per := batch * treeLocals
	for lo := 0; lo < len(evs); lo += per {
		chunk := evs[lo:min(lo+per, len(evs))]
		var r treeRound
		for j, ev := range chunk {
			r.local[j%treeLocals] = append(r.local[j%treeLocals], ev)
		}
		r.t = chunk[len(chunk)-1].Time
		rounds = append(rounds, r)
		steps = append(steps, feedStep{evs: chunk, adv: r.t})
	}
	rounds = append(rounds, treeRound{t: drain})
	steps = append(steps, feedStep{adv: drain})
	return rounds, steps
}

// topology is one TCP tree on loopback: locals → one intermediate → root.
type topology struct {
	root     *node.RootServer
	inter    *node.IntermediateServer
	sessions [treeLocals]*node.LocalSession
	release  chan struct{}
	localErr chan error
	started  int
}

// codecs are the per-node counting codecs of a traced repetition.
type codecs struct {
	root, inter *countingCodec
	local       [treeLocals]*countingCodec
	rootLog     frameLog
	interLog    frameLog
}

func newCodecs() *codecs {
	c := &codecs{}
	c.root = newCountingCodec(&c.rootLog)
	c.inter = newCountingCodec(&c.interLog)
	for i := range c.local {
		c.local[i] = newCountingCodec(nil)
	}
	return c
}

// all sums the counters of every node.
func (c *codecs) all() codecTotals {
	t := c.root.totals().plus(c.inter.totals())
	for _, l := range c.local {
		t = t.plus(l.totals())
	}
	return t
}

// startTopology starts root, intermediate and locals, and returns once
// every local's handshake has finished: the root's merger learns a child
// only when its hello arrives, so no local may stream before all have
// joined. Each local's feed callback parks until release closes; the one
// feeder goroutine drives all sessions in lockstep.
func startTopology(qs []query.Query, batch int, col *collector, cs *codecs) (*topology, error) {
	var rootCodec, interCodec message.Codec
	var localCodec [treeLocals]message.Codec
	if cs != nil {
		rootCodec, interCodec = cs.root, cs.inter
		for i := range localCodec {
			localCodec[i] = cs.local[i]
		}
	}
	t := &topology{release: make(chan struct{}), localErr: make(chan error, treeLocals)}
	var err error
	t.root, err = node.ServeRootOptions("127.0.0.1:0", qs, 1, liveness, node.RootServeOptions{Codec: rootCodec, OnResult: col.onResult})
	if err != nil {
		return nil, err
	}
	t.inter, err = node.ServeIntermediateOptions("127.0.0.1:0", t.root.Addr(), interID, treeLocals, liveness, node.DialOptions{Codec: interCodec})
	if err != nil {
		t.root.Close()
		return nil, err
	}
	type ready struct {
		i int
		s *node.LocalSession
	}
	readyC := make(chan ready, treeLocals)
	for i := 0; i < treeLocals; i++ {
		i := i
		t.started++
		go func() {
			t.localErr <- node.RunLocalTCPOptions(t.inter.Addr(), uint32(i+1), batch, node.DialOptions{Codec: localCodec[i]},
				func(s *node.LocalSession) error {
					readyC <- ready{i, s}
					<-t.release
					return nil
				})
		}()
	}
	for joined := 0; joined < treeLocals; {
		select {
		case r := <-readyC:
			t.sessions[r.i] = r.s
			joined++
		case err := <-t.localErr:
			t.started--
			return t, errors.Join(fmt.Errorf("local start: %w", err), t.stop())
		}
	}
	return t, nil
}

// stop releases the locals (each says goodbye and closes) and waits for
// every node to finish.
func (t *topology) stop() error {
	close(t.release)
	var errs []error
	for ; t.started > 0; t.started-- {
		errs = append(errs, <-t.localErr)
	}
	errs = append(errs, t.inter.Wait(), t.root.Wait()) // Wait also closes the listeners
	return errors.Join(errs...)
}

// runTreeRep runs one repetition on a fresh topology. Paced (open loop),
// round r starts when it is due at the offered rate, whether or not the
// tree kept up, and the round's windows are timed from that due time.
// Closed loop (env.closed), round r starts as soon as the root has emitted
// every window the reference closes by round r-inFlight; the repetition
// then measures the tree's throughput only.
func runTreeRep(env *repEnv) (repOut, []rec, error) {
	out := repOut{closed: env.closed, samples: map[string]int{}}
	tr := env.tr
	col := newCollector(len(env.ref.recs))
	if env.closed {
		col.progress = make(chan struct{}, 1)
	}
	base := liveHeap()
	var cs *codecs
	var rootPlan *plan.Plan
	if tr != nil {
		// The root runs query.Analyze and the plan build inside
		// ServeRootOptions; timing them on their own splits plan work out
		// of setup. The plan is kept for the root's replay.
		t0 := time.Now()
		groups, err := query.Analyze(env.queries, query.Options{Decentralized: true, Optimize: true})
		if err != nil {
			return out, nil, err
		}
		rootPlan = plan.FromGroups(groups, plan.Options{Decentralized: true, Optimize: true})
		tr.add("plan.build", -1, t0, time.Now())
		out.layers = map[string]float64{"plan.build_ms": msec(time.Since(t0))}
		cs = newCodecs()
		operator.CountMerges(true)
		defer operator.CountMerges(false)
	}

	t0 := time.Now()
	topo, err := startTopology(env.queries, env.w.batch, col, cs)
	if err != nil {
		return out, nil, err
	}
	out.setup = time.Since(t0)

	var codec0 codecTotals
	if cs != nil {
		codec0 = cs.all()
	}
	ss := topo.sessions
	roundRef := make([]time.Duration, len(env.rounds))
	roundT := make([]int64, len(env.rounds))
	var late []float64
	interval := float64(env.w.batch*treeLocals) / env.w.rate // seconds per round
	var procNS, advNS []float64
	var busy time.Duration
	parent := -1
	cpu0 := cpuTime()
	start := time.Now()
	if tr != nil {
		parent = tr.add("rep", -1, start, start)
	}
	var feedErr error
	for r, rd := range env.rounds {
		if env.closed {
			if r >= inFlight {
				if feedErr = col.waitFor(env.ref.upTo[r-inFlight], resultWait); feedErr != nil {
					break
				}
			}
		} else {
			due := start.Add(time.Duration(float64(r) * interval * 1e9))
			if d := time.Until(due); d > 0 {
				// syscall.Nanosleep keeps to ~0.1 ms here, where
				// time.Sleep overshoots by about 1 ms.
				ts := syscall.NsecToTimespec(int64(d))
				_ = syscall.Nanosleep(&ts, nil)
			}
			late = append(late, float64(time.Since(due)))
			roundRef[r], roundT[r] = due.Sub(col.origin), rd.t
		}
		if tr == nil {
			for i, s := range ss {
				feedErr = errors.Join(feedErr, s.Process(rd.local[i]))
			}
			for _, s := range ss {
				feedErr = errors.Join(feedErr, s.AdvanceTo(rd.t))
			}
		} else {
			rp := tr.add("feed.round", parent, time.Now(), time.Now())
			for i, s := range ss {
				feedErr = errors.Join(feedErr, feedCall(tr, rp, "core.Local.Process", cs, i, &procNS, &busy, func() error { return s.Process(rd.local[i]) }))
			}
			for i, s := range ss {
				feedErr = errors.Join(feedErr, feedCall(tr, rp, "core.Local.AdvanceTo", cs, i, &advNS, &busy, func() error { return s.AdvanceTo(rd.t) }))
			}
			tr.spans[rp].end = time.Since(tr.origin)
		}
		if feedErr != nil {
			break
		}
	}
	complete := false
	if feedErr == nil {
		select {
		case <-col.done:
			complete = true
		case <-time.After(resultWait):
		}
	}
	cpu1 := cpuTime()
	if complete {
		// The wall time ends when the root emitted its last window.
		out.wall = col.origin.Add(time.Duration(col.doneAt)).Sub(start)
	} else {
		out.wall = time.Since(start)
	}
	out.cpu = cpu1 - cpu0
	out.events = env.events
	out.heap = liveHeap() - base

	var locals core.Stats
	for _, s := range ss {
		st := s.Stats()
		locals.Calculations += st.Calculations
		locals.Slices += st.Slices
	}
	var codecRun codecTotals
	if cs != nil {
		codecRun = cs.all().minus(codec0)
		tr.spans[parent].end = time.Since(tr.origin)
	}
	if err := errors.Join(feedErr, topo.stop()); err != nil {
		return out, nil, err
	}
	// col.recs is safe to read: the root's Wait returned, so its handler
	// goroutines have finished. Windows ending after the last event are
	// closed by the final drain in one burst after the stream ends; they
	// are checked but carry no freshness sample.
	recs := col.recs
	last := len(roundT) - 1
	for i := range recs {
		recs[i].fresh = noFresh
		if env.closed {
			continue
		}
		if k := sort.Search(last, func(j int) bool { return roundT[j] >= recs[i].end }); k < last {
			recs[i].fresh = recs[i].at - int64(roundRef[k])
		}
	}
	if tr == nil && !env.closed {
		out.setFreshness(recs)
		out.lateP99 = quantile(late, 0.99) / 1e6
		out.samples["gen.late_ms"] = len(late)
	}

	if tr != nil {
		ev := float64(env.events)
		enc, dec := allKinds(codecRun.enc), allKinds(codecRun.dec)
		out.samples["core.batch_p99_us"], out.samples["core.advance_p99_us"] = len(procNS), len(advNS)
		out.layers["core.process_ns_per_event"] = float64(busy) / ev
		out.layers["core.batch_p99_us"] = quantile(procNS, 0.99) / 1e3
		out.layers["core.advance_p99_us"] = quantile(advNS, 0.99) / 1e3
		out.layers["core.calculations_per_event"] = float64(locals.Calculations) / ev
		out.layers["core.slices_per_kevent"] = float64(locals.Slices) / ev * 1e3
		out.layers["operator.merges_per_window"] = float64(operator.MergeCalls()) / float64(max(len(recs), 1))
		out.layers["message.bytes_per_event"] = float64(enc.bytes) / ev
		out.layers["message.bytes_per_event.partial"] = float64(codecRun.enc[kindPartial].bytes) / ev
		out.layers["message.bytes_per_event.watermark"] = float64(codecRun.enc[kindWatermark].bytes) / ev
		out.layers["message.frames_per_kevent"] = float64(enc.frames) / ev * 1e3
		out.layers["message.encode_ns_per_frame"] = float64(enc.ns) / float64(max(enc.frames, 1))
		out.layers["message.decode_ns_per_frame"] = float64(dec.ns) / float64(max(dec.frames, 1))
		interNS, err := replayIntermediate(tr, cs.interLog.msgs)
		if err != nil {
			return out, nil, err
		}
		rootNS, rootWindows, err := replayRoot(tr, rootPlan, cs.rootLog.msgs)
		if err != nil {
			return out, nil, err
		}
		if rootWindows != len(env.ref.recs) {
			return out, nil, fmt.Errorf("root replay emitted %d windows, reference has %d", rootWindows, len(env.ref.recs))
		}
		out.layers["node.inter_handle_ns_per_msg"] = interNS
		out.layers["node.root_handle_ns_per_msg"] = rootNS
	}
	return out, recs, nil
}

// feedCall runs one call into a local and, when tracing, records its span
// and its core self time: the call's duration minus the time the local's
// codec spent encoding inside it.
func feedCall(tr *tracer, parent int, name string, cs *codecs, i int, durs *[]float64, busy *time.Duration, call func() error) error {
	enc0 := cs.local[i].encodeNS()
	t1 := time.Now()
	err := call()
	t2 := time.Now()
	tr.add(name, parent, t1, t2)
	self := t2.Sub(t1) - (cs.local[i].encodeNS() - enc0)
	*durs = append(*durs, float64(self))
	*busy += self
	return err
}

// replayIntermediate feeds the frames the intermediate decoded into a fresh
// node.Intermediate and reports the mean time per HandleLocked call.
func replayIntermediate(tr *tracer, msgs []*message.Message) (float64, error) {
	locals := make([]uint32, treeLocals)
	for i := range locals {
		locals[i] = uint32(i + 1)
	}
	n := node.NewIntermediate(interID, locals, discardConn{})
	parent := tr.add("replay.intermediate", -1, time.Now(), time.Now())
	var total time.Duration
	for _, m := range msgs {
		t1 := time.Now()
		err := n.HandleLocked(m)
		t2 := time.Now()
		if err != nil {
			return 0, err
		}
		tr.add("node.Intermediate.HandleLocked", parent, t1, t2)
		total += t2.Sub(t1)
	}
	tr.spans[parent].end = time.Since(tr.origin)
	return float64(total) / float64(max(len(msgs), 1)), nil
}

// replayRoot feeds the frames the root decoded into a fresh node.Root built
// from the root's plan and reports the mean time per Handle call and the
// windows it emitted.
func replayRoot(tr *tracer, p *plan.Plan, msgs []*message.Message) (float64, int, error) {
	windows := 0
	r := node.NewRootFromPlan(p, []uint32{interID}, func(core.Result) { windows++ })
	parent := tr.add("replay.root", -1, time.Now(), time.Now())
	var total time.Duration
	for _, m := range msgs {
		t1 := time.Now()
		err := r.Handle(m)
		t2 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		tr.add("node.Root.Handle", parent, t1, t2)
		total += t2.Sub(t1)
	}
	tr.spans[parent].end = time.Since(tr.origin)
	return float64(total) / float64(max(len(msgs), 1)), windows, nil
}
