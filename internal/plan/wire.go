package plan

import (
	"encoding/binary"
	"fmt"
	"math"

	"desis/internal/operator"
	"desis/internal/query"
)

// Wire serialization of plans and deltas: little-endian fixed-width fields,
// matching the layout discipline of the binary message codec. The message
// package embeds these payloads in KindPlanState and KindPlanDelta frames;
// the catalog carries tombstoned members and explicit operator masks so a
// decoding node reproduces the sender's group ids, member indices, and slice
// masks exactly — including state (like a post-removal widened mask) that is
// not derivable from the live query set alone.

// AppendQuery appends the wire form of one query to buf.
func AppendQuery(buf []byte, q query.Query) []byte {
	buf = wu64(buf, q.ID)
	buf = wu32(buf, q.Key)
	buf = wbool(buf, q.AnyKey)
	buf = wf64(buf, q.Pred.Min)
	buf = wf64(buf, q.Pred.Max)
	buf = append(buf, byte(q.Type), byte(q.Measure))
	buf = wu64(buf, uint64(q.Length))
	buf = wu64(buf, uint64(q.Slide))
	buf = wu64(buf, uint64(q.Gap))
	buf = wu32(buf, uint32(len(q.Funcs)))
	for _, f := range q.Funcs {
		buf = append(buf, byte(f.Func))
		buf = wf64(buf, f.Arg)
	}
	return buf
}

// DecodeQuery reads one query, returning the remaining buffer. Like every
// decoder here it rejects queries that fail query.Query.Validate.
func DecodeQuery(buf []byte) (query.Query, []byte, error) {
	r := &wireReader{buf: buf}
	q := r.query()
	return q, r.buf, r.err
}

// AppendDelta appends the wire form of one delta to buf.
func AppendDelta(buf []byte, d Delta) []byte {
	buf = append(buf, byte(d.Kind))
	buf = wu64(buf, d.Epoch)
	switch d.Kind {
	case DeltaAddQuery:
		buf = AppendQuery(buf, d.Query)
	case DeltaRemoveQuery:
		buf = wu64(buf, d.QueryID)
	case DeltaInstantiate:
		buf = wu64(buf, d.QueryID)
		buf = wu32(buf, d.Key)
	}
	return buf
}

// DecodeDelta reads one delta, returning the remaining buffer.
func DecodeDelta(buf []byte) (Delta, []byte, error) {
	r := &wireReader{buf: buf}
	d := Delta{Kind: DeltaKind(r.u8()), Epoch: r.u64()}
	switch d.Kind {
	case DeltaAddQuery:
		d.Query = r.query()
	case DeltaRemoveQuery:
		d.QueryID = r.u64()
	case DeltaInstantiate:
		d.QueryID = r.u64()
		d.Key = r.u32()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("plan: unknown delta kind %d on the wire", uint8(d.Kind))
		}
	}
	return d, r.buf, r.err
}

// AppendPlan appends the full wire form of the plan to buf.
func AppendPlan(buf []byte, p *Plan) []byte {
	buf = wu64(buf, p.Epoch)
	buf = wbool(buf, p.Decentralized)
	buf = wbool(buf, p.Dedup)
	buf = wbool(buf, p.Optimize)
	buf = wu32(buf, uint32(p.Shards))
	buf = wu32(buf, uint32(int32(p.Shard)))
	buf = wu32(buf, uint32(len(p.Groups)))
	for _, g := range p.Groups {
		buf = wu32(buf, g.ID)
		buf = wu32(buf, g.Key)
		buf = append(buf, byte(g.Placement))
		buf = wbool(buf, g.Dedup)
		buf = wu64(buf, uint64(g.Ops))
		buf = wu64(buf, uint64(g.LogicalOps))
		buf = wu32(buf, g.FeedFrom)
		buf = wu32(buf, uint32(g.FeedCtx))
		buf = wu64(buf, uint64(g.FeedPeriod))
		buf = wu32(buf, uint32(len(g.Contexts)))
		for _, c := range g.Contexts {
			buf = wf64(buf, c.Min)
			buf = wf64(buf, c.Max)
		}
		buf = wu32(buf, uint32(len(g.Queries)))
		for _, gq := range g.Queries {
			buf = AppendQuery(buf, gq.Query)
			buf = wu32(buf, uint32(gq.Ctx))
			buf = wbool(buf, gq.Removed)
		}
	}
	buf = wu32(buf, uint32(len(p.Templates)))
	for _, t := range p.Templates {
		buf = AppendQuery(buf, t)
	}
	buf = wu32(buf, uint32(len(p.Instances)))
	for _, in := range p.Instances {
		buf = wu64(buf, in.TemplateID)
		buf = wu32(buf, in.Key)
	}
	return buf
}

// DecodePlan reads a full plan, returning the remaining buffer. Decoded
// groups are cross-checked: the live members' operator union must be covered
// by the group's wire mask.
func DecodePlan(buf []byte) (*Plan, []byte, error) {
	r := &wireReader{buf: buf}
	p := &Plan{
		Epoch:         r.u64(),
		Decentralized: r.bool(),
		Dedup:         r.bool(),
		Optimize:      r.bool(),
		Shards:        int(r.u32()),
		Shard:         int(int32(r.u32())),
	}
	ng := int(r.u32())
	for i := 0; i < ng && r.err == nil; i++ {
		g := &query.Group{
			ID:         r.u32(),
			Key:        r.u32(),
			Placement:  query.Placement(r.u8()),
			Dedup:      r.bool(),
			Ops:        operator.Op(r.u64()),
			LogicalOps: operator.Op(r.u64()),
		}
		g.FeedFrom = r.u32()
		g.FeedCtx = int(r.u32())
		g.FeedPeriod = int64(r.u64())
		nc := int(r.u32())
		for j := 0; j < nc && r.err == nil; j++ {
			g.Contexts = append(g.Contexts, query.Predicate{Min: r.f64(), Max: r.f64()})
		}
		nq := int(r.u32())
		for j := 0; j < nq && r.err == nil; j++ {
			gq := query.GroupQuery{Query: r.query()}
			gq.Ctx = int(r.u32())
			gq.Removed = r.bool()
			if r.err == nil && gq.Ctx >= len(g.Contexts) {
				r.err = fmt.Errorf("plan: group %d member q%d references context %d of %d", g.ID, gq.ID, gq.Ctx, len(g.Contexts))
			}
			g.Queries = append(g.Queries, gq)
		}
		if r.err == nil {
			if logical, _ := opsOf(g); logical&^g.LogicalOps != 0 {
				r.err = fmt.Errorf("plan: group %d wire mask %v does not cover live members (%v)", g.ID, g.LogicalOps, logical)
			}
		}
		p.Groups = append(p.Groups, g)
	}
	nt := int(r.u32())
	for i := 0; i < nt && r.err == nil; i++ {
		p.Templates = append(p.Templates, r.query())
	}
	ni := int(r.u32())
	for i := 0; i < ni && r.err == nil; i++ {
		p.Instances = append(p.Instances, Instance{TemplateID: r.u64(), Key: r.u32()})
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if err := validateFeeds(p); err != nil {
		return nil, nil, err
	}
	return p, r.buf, nil
}

// --- little-endian helpers ---

func wu32(buf []byte, v uint32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], v)
	return append(buf, t[:]...)
}

func wu64(buf []byte, v uint64) []byte {
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], v)
	return append(buf, t[:]...)
}

func wf64(buf []byte, v float64) []byte { return wu64(buf, math.Float64bits(v)) }

func wbool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

type wireReader struct {
	buf []byte
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.err = fmt.Errorf("plan: truncated wire payload: need %d bytes, have %d", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *wireReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *wireReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *wireReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *wireReader) bool() bool {
	b := r.take(1)
	return b != nil && b[0] == 1
}

func (r *wireReader) query() query.Query {
	q := query.Query{
		ID:     r.u64(),
		Key:    r.u32(),
		AnyKey: r.bool(),
	}
	q.Pred.Min = r.f64()
	q.Pred.Max = r.f64()
	q.Type = query.WindowType(r.u8())
	q.Measure = query.Measure(r.u8())
	q.Length = int64(r.u64())
	q.Slide = int64(r.u64())
	q.Gap = int64(r.u64())
	n := int(r.u32())
	for i := 0; i < n && r.err == nil; i++ {
		f := operator.Func(r.u8())
		arg := r.f64()
		q.Funcs = append(q.Funcs, operator.FuncSpec{Func: f, Arg: arg})
	}
	if r.err == nil {
		// Queries arrive off a socket: reject what no parser accepts (a zero
		// window length, no functions) before an engine divides by it.
		if err := q.Validate(); err != nil {
			r.err = fmt.Errorf("plan: invalid query on the wire: %w", err)
		}
	}
	return q
}
