package plan

import (
	"bytes"
	"testing"

	"desis/internal/query"
)

// FuzzDecodePlan throws arbitrary bytes at the plan decoder, which reads
// plans off the handshake socket: hostile input must error, never panic,
// and whatever decodes must re-encode to bytes that decode and encode to
// themselves.
func FuzzDecodePlan(f *testing.F) {
	parse := func(id uint64, text string) query.Query {
		qq, err := query.ParseAny(text)
		if err != nil {
			f.Fatalf("parse %q: %v", text, err)
		}
		qq.ID = id
		return qq
	}
	// A decentralized sharded plan with a template, an instance and a
	// tombstone, and an optimized plan with a depth-3 feed chain.
	sharded, err := New([]query.Query{
		parse(1, "tumbling(1s) average key=3 value>=80"),
		parse(2, "sliding(10s,2s) sum,quantile(0.9) key=1"),
		parse(3, "tumbling(1s) sum key=3"),
		parse(7, "tumbling(1s) max key=*"),
	}, Options{Decentralized: true, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	if err := sharded.Apply(sharded.InstantiateDelta(7, 5)); err != nil {
		f.Fatal(err)
	}
	if err := sharded.Apply(sharded.RemoveDelta(3)); err != nil {
		f.Fatal(err)
	}
	factor, err := New([]query.Query{
		parse(1, "tumbling(1s) sum key=0"),
		parse(2, "sliding(60s,10s) sum,average key=0"),
		parse(3, "sliding(600s,60s) min key=0"),
		parse(4, "session(5s) median key=1"),
	}, Options{Optimize: true})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []*Plan{sharded, factor} {
		buf := AppendPlan(nil, p)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add(AppendPlan(nil, zeroLengthPlan(f)))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, buf []byte) {
		p, _, err := DecodePlan(buf)
		if err != nil {
			return
		}
		enc := AppendPlan(nil, p)
		p2, rest, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("re-decode left %d bytes", len(rest))
		}
		if again := AppendPlan(nil, p2); !bytes.Equal(again, enc) {
			t.Fatal("plan changed across re-encode")
		}
	})
}
