package core

import (
	"bytes"
	"math/rand"
	"testing"

	"desis/internal/query"
)

// FuzzRestore throws arbitrary bytes at Restore, which reads checkpoints
// back from disk: a corrupt snapshot must error, never panic or size an
// allocation by a count it does not carry, and whatever restores must
// snapshot to bytes that restore and snapshot to themselves.
func FuzzRestore(f *testing.F) {
	queries := []query.Query{
		query.MustParse("tumbling(100ms) average key=0"),
		query.MustParse("sliding(150ms,50ms) median key=0"),
		query.MustParse("session(60ms) count key=0"),
		query.MustParse("userdefined max key=0"),
		query.MustParse("tumbling(16ev) sum key=0"),
	}
	for i := range queries {
		queries[i].ID = uint64(i + 1)
	}
	groups := func() []*groupOf {
		gs, err := query.Analyze(queries, query.Options{})
		if err != nil {
			f.Fatal(err)
		}
		return gs
	}
	rng := rand.New(rand.NewSource(21))
	evs := randomStream(rng, 300, 1)
	for _, cut := range []int{0, 1, 137, 300} {
		e := New(groups(), Config{})
		e.ProcessBatch(evs[:cut])
		f.Add(e.Snapshot(nil))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, snap []byte) {
		e, err := Restore(groups(), Config{}, snap)
		if err != nil {
			return
		}
		again := e.Snapshot(nil)
		e2, err := Restore(groups(), Config{}, again)
		if err != nil {
			t.Fatalf("restore of own snapshot failed: %v", err)
		}
		if got := e2.Snapshot(nil); !bytes.Equal(got, again) {
			t.Fatal("snapshot changed across restore")
		}
	})
}
