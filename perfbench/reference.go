package main

import (
	"math"

	"desis/internal/baseline"
	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/query"
)

// rec is one window result in a fixed-size form, so collecting results
// during a measured repetition appends into preallocated memory.
type rec struct {
	q          uint64
	key        uint32 // Result.Key as the program reported it
	start, end int64
	count      int64
	nv         int
	v          [2]float64
	ok         [2]bool
	// at is when the result arrived, in ns since the repetition's origin;
	// fresh is the freshness in ns once known, noFresh for none.
	at, fresh int64
}

const noFresh = -1

func toRec(r core.Result) rec {
	x := rec{q: r.QueryID, key: r.Key, start: r.Start, end: r.End, count: r.Count, nv: len(r.Values)}
	for i := 0; i < len(r.Values) && i < len(x.v); i++ {
		x.v[i], x.ok[i] = r.Values[i].Value, r.Values[i].OK
	}
	return x
}

// winID is a window's identity: query id, key, start, end. The key is the
// query's fixed key, or the reported key for group-by templates.
type winID struct {
	q          uint64
	key        uint32
	start, end int64
}

// reference holds the windows internal/baseline's CeBuffer computes over
// the same global stream. CeBuffer keeps raw per-window buffers and shares
// nothing with internal/core's slicing or assembly.
type reference struct {
	recs []rec
	idx  map[winID]int
	// fixedKey maps each non-template query id to its key.
	fixedKey map[uint64]uint32
	// upTo is how many windows the reference had emitted after each step.
	upTo []int
}

// feedStep is one call pattern shared by the program and the reference:
// events, then an advance of event time to adv.
type feedStep struct {
	evs []event.Event
	adv int64
}

func buildReference(qs []query.Query, steps []feedStep) (*reference, error) {
	sys, err := baseline.NewCeBuffer(qs)
	if err != nil {
		return nil, err
	}
	ref := &reference{idx: map[winID]int{}, fixedKey: map[uint64]uint32{}}
	for _, q := range qs {
		if !q.AnyKey {
			ref.fixedKey[q.ID] = q.Key
		}
	}
	for _, s := range steps {
		for _, ev := range s.evs {
			sys.Process(ev)
		}
		sys.AdvanceTo(s.adv)
		for _, r := range sys.Results() {
			x := toRec(r)
			ref.idx[ref.id(x)] = len(ref.recs)
			ref.recs = append(ref.recs, x)
		}
		ref.upTo = append(ref.upTo, len(ref.recs))
	}
	return ref, nil
}

func (ref *reference) id(x rec) winID {
	key, fixed := ref.fixedKey[x.q]
	if !fixed {
		key = x.key
	}
	return winID{x.q, key, x.start, x.end}
}

// check compares one repetition's output with the reference. failed counts
// windows that are missing, extra (including duplicates) or wrong; counts
// must match exactly and values within a relative 1e-9, the tolerance for
// float reassociation across merged partials. keyMismatch counts results
// whose reported Key differs from the query's fixed key; identity comes
// from the query id, so these are not failures.
func (ref *reference) check(got []rec) (failed, keyMismatch int) {
	seen := make([]bool, len(ref.recs))
	for _, g := range got {
		if k, fixed := ref.fixedKey[g.q]; fixed && k != g.key {
			keyMismatch++
		}
		i, ok := ref.idx[ref.id(g)]
		if !ok || seen[i] {
			failed++
			continue
		}
		seen[i] = true
		if !sameWindow(ref.recs[i], g) {
			failed++
		}
	}
	for _, s := range seen {
		if !s {
			failed++
		}
	}
	return failed, keyMismatch
}

func sameWindow(want, got rec) bool {
	if want.count != got.count || want.nv != got.nv {
		return false
	}
	for i := 0; i < want.nv && i < len(want.v); i++ {
		if want.ok[i] != got.ok[i] {
			return false
		}
		w, g := want.v[i], got.v[i]
		if want.ok[i] && math.Abs(g-w) > 1e-9*(1+math.Abs(w)) {
			return false
		}
	}
	return true
}
