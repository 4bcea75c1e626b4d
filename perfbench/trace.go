package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"desis/internal/message"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call; parent is the index of the enclosing span, -1 for none.
type span struct {
	name       string
	parent     int
	start, end time.Duration // since the tracer's origin
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name, parent, start.Sub(t.origin), end.Sub(t.origin)})
	return len(t.spans) - 1
}

// write dumps the spans as tab-separated id, parent, name, start_ns, end_ns.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start.Nanoseconds(), s.end.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Frame kinds the message metrics are split by.
const (
	kindPartial = iota
	kindWatermark
	kindOther
	nKinds
)

func kindOf(k message.Kind) int {
	switch k {
	case message.KindPartial:
		return kindPartial
	case message.KindWatermark:
		return kindWatermark
	}
	return kindOther
}

type codecCounter struct{ frames, bytes, ns atomic.Int64 }

func (c *codecCounter) add(bytes int, d time.Duration) {
	c.frames.Add(1)
	c.bytes.Add(int64(bytes))
	c.ns.Add(int64(d))
}

func (c *codecCounter) load() counts {
	return counts{c.frames.Load(), c.bytes.Load(), c.ns.Load()}
}

type counts struct{ frames, bytes, ns int64 }

func (a counts) plus(b counts) counts {
	return counts{a.frames + b.frames, a.bytes + b.bytes, a.ns + b.ns}
}

func (a counts) minus(b counts) counts {
	return counts{a.frames - b.frames, a.bytes - b.bytes, a.ns - b.ns}
}

// codecTotals is a snapshot of codec counters, by direction and kind.
type codecTotals struct{ enc, dec [nKinds]counts }

func (a codecTotals) plus(b codecTotals) codecTotals {
	for k := range a.enc {
		a.enc[k], a.dec[k] = a.enc[k].plus(b.enc[k]), a.dec[k].plus(b.dec[k])
	}
	return a
}

func (a codecTotals) minus(b codecTotals) codecTotals {
	for k := range a.enc {
		a.enc[k], a.dec[k] = a.enc[k].minus(b.enc[k]), a.dec[k].minus(b.dec[k])
	}
	return a
}

// allKinds sums one direction over the message kinds.
func allKinds(side [nKinds]counts) counts {
	var t counts
	for _, c := range side {
		t = t.plus(c)
	}
	return t
}

// countingCodec wraps the wire codec of one node and times every encode and
// decode, split by message kind. When log is set, it keeps a deep copy of
// every decoded data frame so the node's message handling can be replayed
// and timed in isolation after the run.
type countingCodec struct {
	message.Codec
	enc, dec [nKinds]codecCounter
	log      *frameLog
}

func newCountingCodec(log *frameLog) *countingCodec {
	return &countingCodec{Codec: message.Binary{}, log: log}
}

func (c *countingCodec) Append(buf []byte, m *message.Message) ([]byte, error) {
	t0 := time.Now()
	out, err := c.Codec.Append(buf, m)
	c.enc[kindOf(m.Kind)].add(len(out)-len(buf), time.Since(t0))
	return out, err
}

func (c *countingCodec) Decode(buf []byte) (*message.Message, error) {
	t0 := time.Now()
	m, err := c.Codec.Decode(buf)
	if err != nil {
		return m, err
	}
	c.dec[kindOf(m.Kind)].add(len(buf), time.Since(t0))
	if c.log != nil {
		c.log.record(m)
	}
	return m, nil
}

func (c *countingCodec) totals() codecTotals {
	var t codecTotals
	for k := range t.enc {
		t.enc[k], t.dec[k] = c.enc[k].load(), c.dec[k].load()
	}
	return t
}

// encodeNS is the total time spent encoding, for subtracting a local's
// encode time from its ingest spans.
func (c *countingCodec) encodeNS() time.Duration {
	var ns int64
	for k := range c.enc {
		ns += c.enc[k].ns.Load()
	}
	return time.Duration(ns)
}

// frameLog records decoded data frames in arrival order. The receiving
// node mutates partials as it merges them, so each is copied at decode.
type frameLog struct {
	mu   sync.Mutex
	msgs []*message.Message
}

func (l *frameLog) record(m *message.Message) {
	switch m.Kind {
	case message.KindPartial, message.KindWatermark, message.KindEventBatch:
	default:
		return
	}
	cp := *m
	if m.Partial != nil {
		cp.Partial = m.Partial.Clone()
	}
	cp.Events = append(cp.Events[:0:0], m.Events...)
	l.mu.Lock()
	l.msgs = append(l.msgs, &cp)
	l.mu.Unlock()
}

// discardConn is the parent of a replayed intermediate: its output is
// dropped, so the replay times merging alone.
type discardConn struct{}

func (discardConn) Send(*message.Message) error     { return nil }
func (discardConn) Recv() (*message.Message, error) { return nil, io.EOF }
func (discardConn) Close() error                    { return nil }
func (discardConn) BytesSent() uint64               { return 0 }
