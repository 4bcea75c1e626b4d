package node

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/query"
	"desis/internal/telemetry"
)

// TCP deployment: the same Local/Intermediate/Root node types served over
// real sockets, used by cmd/desis-node. Root and intermediate run the one
// parent-side implementation of the child protocol (parentServer, parent.go)
// and add only their tier: the root its plan authority and control clients,
// the intermediate its uplink and downstream relay. The protocol is:
//
//  1. a child connects to its parent and sends KindHello with its node id
//     and its current plan epoch (NoEpoch for a fresh child);
//  2. the parent replies with the plan resync the epoch calls for: the
//     missing delta suffix as KindPlanDelta when its history reaches back
//     far enough, otherwise the full catalog as KindPlanState
//     (intermediates serve this from their own cached plan history);
//  3. the child streams partials/events/watermarks upward; an idle child
//     emits KindHeartbeat every HeartbeatInterval so the §3.2 liveness
//     timeout only fires for genuinely dead peers;
//  4. when a child disconnects it is removed from the merge expectations; a
//     silent child is *evicted* after the liveness timeout (enforced with a
//     socket read deadline — no per-message goroutines or timers). Children
//     reconnect with backoff, re-handshake reporting their epoch, and
//     resume their stream: a returning id supersedes the stale connection
//     without disturbing the expectation counters (§3.2 fault tolerance);
//  5. control clients (cmd/desis-ctl) connect to the root and send
//     KindAddQuery / KindRemoveQuery / KindPlanDump / KindStatsDump as their
//     first message; the root converts add/remove into a plan delta,
//     applies it, and broadcasts the delta down the tree as KindPlanDelta
//     (§3.2 runtime query management). A child whose link fails during the
//     broadcast is dropped (it resyncs by epoch diff on reconnect) rather
//     than failing the command. Control kinds on a child's data stream are
//     stream errors, not commands.
//
// The full lifecycle state machine is documented in DESIGN.md §5c.

// HeartbeatInterval is how often idle children emit heartbeats.
const HeartbeatInterval = 2 * time.Second

// EvictionError reports children that were evicted by the liveness timeout
// and had not reconnected by the time the topology finished.
type EvictionError struct{ IDs []uint32 }

func (e *EvictionError) Error() string {
	return fmt.Sprintf("node: %d child(ren) evicted by liveness timeout: %v", len(e.IDs), e.IDs)
}

// isDisconnect reports whether a recv error is an ordinary link teardown
// (clean EOF, peer death mid-frame, local close, reset) as opposed to a
// protocol error worth surfacing.
func isDisconnect(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE)
}

// RootServer is a root node listening for children and control clients.
// Its merger, assembler and plan all run under the parent server's one
// lock.
type RootServer struct {
	*parentServer
	root *Root
}

// RootServeOptions carries the optional knobs of a root server.
type RootServeOptions struct {
	// Codec is the wire codec; nil means message.Binary{}.
	Codec message.Codec
	// OnResult receives final window results.
	OnResult func(core.Result)
	// NoOptimize disables the factor-window plan optimizer. Children adopt
	// the root's plan at handshake, so the setting propagates to the whole
	// tree automatically.
	NoOptimize bool
}

// ServeRootOptions starts a root node on addr. It expects nChildren direct
// children; Wait returns once they have all connected and disconnected. A
// zero timeout disables the liveness check.
func ServeRootOptions(addr string, queries []query.Query, nChildren int, timeout time.Duration, opts RootServeOptions) (*RootServer, error) {
	codec := opts.Codec
	if codec == nil {
		codec = message.Binary{}
	}
	analyzeOpts := query.Options{Decentralized: true, Optimize: !opts.NoOptimize}
	groups, err := query.Analyze(queries, analyzeOpts)
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, codec)
	if err != nil {
		return nil, err
	}
	p := plan.FromGroups(groups, plan.Options{Decentralized: true, Optimize: !opts.NoOptimize})
	s := &RootServer{root: NewRootFromPlan(p, nil, opts.OnResult)}
	s.parentServer = newParentServer(l, s, nChildren, timeout, telemetry.NewRegistry())
	s.root.AttachTelemetry(s.tel, "root")
	s.root.ExpectChildren(nChildren)
	go s.acceptLoop()
	return s, nil
}

// Watermark reports how far the root's event time has advanced.
func (s *RootServer) Watermark() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Watermark()
}

// The root's tier: the merger, plan history and control clients all sit
// behind the server's lock, which handle takes for each frame.
func (s *RootServer) joinLocked(id uint32)            { s.root.AddChild(id) }
func (s *RootServer) leaveLocked(id uint32)           { s.root.RemoveChild(id) }
func (s *RootServer) historyLocked() *plan.History    { return s.root.History() }
func (s *RootServer) progressLocked() (uint64, int64) { return s.root.Epoch(), s.root.Watermark() }

func (s *RootServer) handle(m *message.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root.Handle(m)
}

// control applies one control command and broadcasts it downward; the ack
// is a KindHello (or the connection closes with an error). KindPlanDump
// instead answers with the live catalog as KindPlanState, KindStatsDump
// with the cluster-wide snapshot.
func (s *RootServer) control(conn *message.TCPConn, m *message.Message) {
	var err error
	switch m.Kind {
	case message.KindAddQuery:
		for _, q := range m.Queries {
			if err = s.AddQuery(q); err != nil {
				break
			}
		}
	case message.KindRemoveQuery:
		err = s.RemoveQuery(m.QueryID)
	case message.KindPlanDump:
		s.mu.Lock()
		_ = conn.Send(&message.Message{Kind: message.KindPlanState, Plan: s.root.History().Plan()})
		s.mu.Unlock()
		return
	case message.KindStatsDump:
		_ = conn.Send(&message.Message{Kind: message.KindStatsDump, Stats: s.collectStats(statsWait)})
		return
	default:
		return
	}
	if err != nil {
		return // closing without ack signals failure to the client
	}
	_ = conn.Send(&message.Message{Kind: message.KindHello})
}

// AddQuery registers a query at runtime on the root and every node below it:
// the change is minted as one plan delta, applied to the authoritative plan,
// and that same delta is broadcast down the tree.
func (s *RootServer) AddQuery(q query.Query) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(s.root.History().Plan().AddDelta(q))
}

// RemoveQuery removes a running query everywhere, through the same minted
// plan delta path as AddQuery.
func (s *RootServer) RemoveQuery(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyLocked(s.root.History().Plan().RemoveDelta(id))
}

func (s *RootServer) applyLocked(d plan.Delta) error {
	if err := s.root.Apply(d); err != nil {
		return err
	}
	// Failed children are dropped, not command failures: the delta has been
	// applied at the root and remains the source of truth.
	_ = s.broadcastLocked(&message.Message{Kind: message.KindPlanDelta, Deltas: []plan.Delta{d}})
	return nil
}

// IntermediateServer is an intermediate node over TCP: it merges its
// children's partial streams, forwards to its parent over a supervised
// uplink (heartbeats, reconnect with backoff), and relays control messages
// downward.
type IntermediateServer struct {
	*parentServer
	id     uint32
	inter  *Intermediate
	parent *uplink
	// hist caches the plan received from above so this node can answer its
	// own children's handshakes by epoch diff without a round trip to the
	// root. Guarded by the membership lock; epoch mirrors hist.Epoch() for
	// the uplink's re-handshake, which may run inside a merger send and so
	// must not take that lock.
	hist  *plan.History
	epoch atomic.Uint64
}

// ServeIntermediateOptions starts an intermediate node on addr, connected
// to parentAddr over an uplink shaped by opts (heartbeat period, reconnect
// policy, write deadlines), expecting nChildren children.
func ServeIntermediateOptions(addr, parentAddr string, id uint32, nChildren int, timeout time.Duration, opts DialOptions) (*IntermediateServer, error) {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return nil, err
	}
	l, err := message.Listen(addr, opts.Codec)
	if err != nil {
		up.Close()
		return nil, err
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	s := &IntermediateServer{id: id, parent: up, hist: plan.NewHistory(p)}
	s.epoch.Store(s.hist.Epoch())
	s.parentServer = newParentServer(l, s, nChildren, timeout, tel)
	s.inter = NewIntermediate(id, nil, up)
	s.inter.AttachTelemetry(tel, fmt.Sprintf("inter.%d", id))
	s.inter.ExpectChildren(nChildren)
	up.AttachTelemetry(tel)
	up.SetEpochFn(s.epoch.Load)
	up.SetDigestFn(func() *telemetry.LoadDigest {
		d := s.inter.Digest()
		d.Epoch = s.epoch.Load()
		return d
	})
	up.startHeartbeats()
	go s.acceptLoop()
	go s.downstreamLoop()
	return s, nil
}

// The intermediate's tier. handle runs the merger under its own lock, never
// the membership lock: the merger sends upward, and a stalled uplink must
// not stall handshakes. Lock order is one-way, membership → merger.
func (s *IntermediateServer) joinLocked(id uint32)         { s.inter.AddChildLocked(id) }
func (s *IntermediateServer) leaveLocked(id uint32)        { s.inter.RemoveChildLocked(id) }
func (s *IntermediateServer) historyLocked() *plan.History { return s.hist }
func (s *IntermediateServer) progressLocked() (uint64, int64) {
	return s.hist.Epoch(), s.inter.Digest().Watermark
}
func (s *IntermediateServer) handle(m *message.Message) error            { return s.inter.HandleLocked(m) }
func (s *IntermediateServer) control(*message.TCPConn, *message.Message) {} // no control clients

// downstreamLoop relays plan changes arriving from the parent to every child
// (the "root sends the new topology/queries to all other nodes" flow of
// §3.2), keeping the cached plan history in sync so late-connecting children
// resync from here by epoch diff. The merger never reads from the parent, so
// this goroutine owns the downward direction; the supervised uplink
// reconnects underneath it. Deltas this node has already applied (a
// rebroadcast after reconnect) are skipped but still relayed: children
// deduplicate by epoch themselves.
func (s *IntermediateServer) downstreamLoop() {
	for {
		m, err := s.parent.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case message.KindPlanState:
			// Full plan from an uplink re-handshake: adopt it if it is not
			// older than what we have, and relay as-is (children validate the
			// epoch on their side too).
			s.mu.Lock()
			if m.Plan != nil && m.Plan.Epoch >= s.hist.Epoch() {
				s.hist = plan.NewHistory(m.Plan)
				s.epoch.Store(s.hist.Epoch())
				_ = s.broadcastLocked(m)
			}
			s.mu.Unlock()
		case message.KindPlanDelta:
			s.mu.Lock()
			for _, d := range m.Deltas {
				if d.Epoch <= s.hist.Epoch() {
					continue
				}
				if err := s.hist.Apply(d); err != nil {
					break // stale history; the next re-handshake resyncs us
				}
			}
			s.epoch.Store(s.hist.Epoch())
			_ = s.broadcastLocked(m)
			s.mu.Unlock()
		case message.KindStatsDump:
			// Answer off the relay goroutine: the collection waits on child
			// replies, and plan traffic must keep flowing meanwhile.
			go s.answerStats()
		}
	}
}

// answerStats collects this subtree's snapshot and sends it upward. The
// uplink's Send is safe for concurrent use, so this runs beside the merge
// pipeline without extra locking. Half the root's budget, so this node's
// (possibly partial) reply still lands inside the root's collection window
// when a child is dead.
func (s *IntermediateServer) answerStats() {
	snap := s.collectStats(statsWait / 2)
	_ = s.parent.Send(&message.Message{Kind: message.KindStatsDump, From: s.id, Stats: snap})
}

// Wait blocks until all expected children have come and gone, then closes
// the listener and the uplink. Its error is the parent server's (first
// stream error, evictions) joined with the uplink's.
func (s *IntermediateServer) Wait() error {
	err := s.parentServer.Wait()
	if cerr := s.inter.Close(); cerr != nil && !errors.Is(err, cerr) {
		err = errors.Join(err, cerr)
	}
	return err
}

// LocalSession is the handle RunLocalTCPOptions gives the feed callback: it
// serialises the caller's stream against plan changes (deltas, post-reconnect
// resyncs) arriving from the parent. The local's plan epoch makes every
// arriving change idempotent, so a rebroadcast after reconnect is harmless.
type LocalSession struct {
	mu sync.Mutex
	l  *Local
	// epoch mirrors l.Epoch() so the uplink's re-handshake can read it
	// without mu: the feed goroutine may hold mu while blocking on the very
	// reconnect that needs the epoch for its hello.
	epoch atomic.Uint64
}

// Process ingests a batch of in-order events.
func (s *LocalSession) Process(evs []event.Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Process(evs)
}

// AdvanceTo advances event time and emits a watermark.
func (s *LocalSession) AdvanceTo(t int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.AdvanceTo(t)
}

// Stats exposes the engine counters.
func (s *LocalSession) Stats() core.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.l.Stats()
}

// Epoch reports the session's current plan epoch (what the uplink puts in
// its re-handshake hello). Lock-free so the uplink supervisor can call it
// while the feed goroutine holds the session lock.
func (s *LocalSession) Epoch() uint64 { return s.epoch.Load() }

// applyDeltas applies plan deltas arriving from the parent, skipping epochs
// already applied (a rebroadcast after reconnect must not double-register).
func (s *LocalSession) applyDeltas(ds []plan.Delta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The closure reads the epoch at return time — a plain deferred Store
	// would capture the pre-apply epoch as its argument.
	defer func() { s.epoch.Store(s.l.Epoch()) }()
	for _, d := range ds {
		if d.Epoch <= s.l.Epoch() {
			continue
		}
		if err := s.l.Apply(d); err != nil {
			return // epoch gap: wait for the full plan of the next resync
		}
	}
}

// applyPlanState replaces the plan after an uplink re-handshake said we were
// too stale for an epoch diff.
func (s *LocalSession) applyPlanState(p *plan.Plan) {
	if p == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.l.ResyncPlan(p)
	s.epoch.Store(s.l.Epoch())
}

// RunLocalTCPOptions connects a local node to parentAddr over an uplink
// shaped by opts, performs the handshake, and invokes feed with the ready
// session. Control messages from the parent are applied concurrently. The
// connection closes when feed returns. The uplink is supervised: on link
// failure it reconnects with exponential backoff and jitter, re-handshakes
// reporting the session's plan epoch, applies the resync (epoch-diff deltas,
// or the full plan when too stale), and resumes the partial stream; once the
// retry budget is exhausted the session errors out with ErrUplinkDown. While
// idle it emits heartbeats so the parent's liveness timeout never evicts an
// alive child.
func RunLocalTCPOptions(parentAddr string, id uint32, batchSize int, opts DialOptions, feed func(*LocalSession) error) error {
	opts = opts.withDefaults()
	up, p, err := dialUplink(parentAddr, id, opts)
	if err != nil {
		return err
	}
	tel := opts.Telemetry
	if tel == nil {
		tel = telemetry.NewRegistry()
	}
	session := &LocalSession{l: NewLocalFromPlanTuned(id, p, up, batchSize, opts.Tuning)}
	session.epoch.Store(session.l.Epoch())
	session.l.AttachTelemetry(tel)
	up.AttachTelemetry(tel)
	up.SetEpochFn(session.Epoch)
	up.SetDigestFn(func() *telemetry.LoadDigest {
		d := session.l.Digest()
		d.Epoch = session.Epoch()
		return d
	})
	up.startHeartbeats()
	go func() {
		for {
			m, err := up.Recv()
			if err != nil {
				return
			}
			switch m.Kind {
			case message.KindPlanState:
				session.applyPlanState(m.Plan)
			case message.KindPlanDelta:
				session.applyDeltas(m.Deltas)
			case message.KindStatsDump:
				// Snapshot is lock-free and the uplink's Send is safe for
				// concurrent use, so answering from the relay goroutine
				// never stalls the feed.
				_ = up.Send(&message.Message{Kind: message.KindStatsDump, From: id, Stats: tel.Snapshot()})
			}
		}
	}()
	if err := feed(session); err != nil {
		session.mu.Lock()
		defer session.mu.Unlock()
		session.l.Close()
		return err
	}
	session.mu.Lock()
	defer session.mu.Unlock()
	return session.l.Close()
}

// Control connects to a root as a control client and applies one command:
// a non-nil addQuery adds it; otherwise removeID is removed.
func Control(rootAddr string, codec message.Codec, addQuery *query.Query, removeID uint64) error {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return err
	}
	defer conn.Close()
	var m *message.Message
	if addQuery != nil {
		m = &message.Message{Kind: message.KindAddQuery, Queries: []query.Query{*addQuery}}
	} else {
		m = &message.Message{Kind: message.KindRemoveQuery, QueryID: removeID}
	}
	if err := conn.Send(m); err != nil {
		return err
	}
	ack, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("node: control command rejected: %w", err)
	}
	if ack.Kind != message.KindHello {
		return fmt.Errorf("node: unexpected control ack kind %d", ack.Kind)
	}
	return nil
}

// FetchPlan connects to a root as a control client and retrieves its live
// execution plan (catalog, epoch, placements).
func FetchPlan(rootAddr string, codec message.Codec) (*plan.Plan, error) {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(&message.Message{Kind: message.KindPlanDump}); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: plan dump rejected: %w", err)
	}
	if reply.Kind != message.KindPlanState || reply.Plan == nil {
		return nil, fmt.Errorf("node: unexpected plan dump reply kind %d", reply.Kind)
	}
	return reply.Plan, nil
}

// FetchStats connects to a root as a control client and retrieves the
// cluster-wide telemetry snapshot: the root's own instruments merged with
// every reachable node's (cmd/desis-ctl -stats).
func FetchStats(rootAddr string, codec message.Codec) (*telemetry.Snapshot, error) {
	if codec == nil {
		codec = message.Binary{}
	}
	conn, err := message.Dial(rootAddr, codec)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.Send(&message.Message{Kind: message.KindStatsDump}); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("node: stats dump rejected: %w", err)
	}
	if reply.Kind != message.KindStatsDump || reply.Stats == nil {
		return nil, fmt.Errorf("node: unexpected stats dump reply kind %d", reply.Kind)
	}
	return reply.Stats, nil
}
