package node

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"desis/internal/message"
	"desis/internal/plan"
	"desis/internal/telemetry"
)

// parentServer is the parent side of the child protocol: the one
// implementation of the child-lifecycle state machine of DESIGN.md §5c
// (unknown → streaming → goodbye/unclean/evicted → done), shared by the root
// and the intermediate tiers. It accepts connections, handshakes children
// with a plan resync, streams their frames into the tier, tracks
// supersedes, goodbyes, unclean departures and evictions, signals done, and
// fans stats requests out to the children. A tier supplies only what
// differs through the tier interface.
type parentServer struct {
	l       *message.Listener
	tier    tier
	tel     *telemetry.Registry
	timeout time.Duration

	// mu is the membership lock: it guards every field below, and the
	// tier's *Locked methods run under it.
	mu       sync.Mutex
	children map[uint32]*message.TCPConn
	expected int
	active   int
	seenIDs  map[uint32]bool
	evicted  map[uint32]bool
	// goodbye marks children that announced a deliberate departure
	// (KindGoodbye); unclean marks seen children that left without one and
	// may therefore still reconnect. Both reset when the id returns.
	goodbye map[uint32]bool
	unclean map[uint32]bool
	// loads holds the most recent heartbeat load digest per child (for the
	// per-child lag gauges); statsC, when non-nil, routes KindStatsDump
	// replies arriving on child connections to the in-flight collection.
	loads  map[uint32]*telemetry.LoadDigest
	statsC chan *telemetry.Snapshot
	done   chan struct{}
	// doneTimer defers the done signal while an unclean departure might
	// still turn into a reconnect (one timer per server, not per message).
	doneTimer *time.Timer
	err       error

	// statsMu serialises collections so two concurrent stats pulls cannot
	// steal each other's replies.
	statsMu sync.Mutex
}

// tier is what the root and the intermediate do differently as parents.
type tier interface {
	// joinLocked and leaveLocked add a child to and drop it from the merge
	// expectations (§3.2).
	joinLocked(id uint32)
	leaveLocked(id uint32)
	// historyLocked is the plan history handshakes resync from.
	historyLocked() *plan.History
	// progressLocked reports the plan epoch and watermark the per-child lag
	// gauges are measured against.
	progressLocked() (epoch uint64, watermark int64)
	// handle merges one frame of a child's stream. It runs without mu, so
	// each tier picks the lock its merger runs under.
	handle(m *message.Message) error
	// control serves a connection whose first message is not a hello; the
	// server closes conn afterwards.
	control(conn *message.TCPConn, first *message.Message)
}

// newParentServer serves t's children on l, expecting expected of them and
// evicting any that stay silent for timeout (zero disables the liveness
// check). The caller starts acceptLoop once t is ready for children.
func newParentServer(l *message.Listener, t tier, expected int, timeout time.Duration, tel *telemetry.Registry) *parentServer {
	return &parentServer{
		l:        l,
		tier:     t,
		tel:      tel,
		timeout:  timeout,
		children: make(map[uint32]*message.TCPConn),
		expected: expected,
		seenIDs:  make(map[uint32]bool),
		evicted:  make(map[uint32]bool),
		goodbye:  make(map[uint32]bool),
		unclean:  make(map[uint32]bool),
		loads:    make(map[uint32]*telemetry.LoadDigest),
		done:     make(chan struct{}),
	}
}

// Addr returns the bound address.
func (s *parentServer) Addr() string { return s.l.Addr() }

// Telemetry exposes the node's instrument registry, e.g. to mount a debug
// HTTP endpoint next to the listener.
func (s *parentServer) Telemetry() *telemetry.Registry { return s.tel }

// Close stops the listener.
func (s *parentServer) Close() error { return s.l.Close() }

// Evicted returns the ids of children currently evicted by the liveness
// timeout (a child that reconnects leaves the set).
func (s *parentServer) Evicted() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return evictedIDs(s.evicted)
}

func evictedIDs(m map[uint32]bool) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Wait blocks until every expected child connected and disconnected, then
// closes the listener. It returns the first stream error, joined with an
// EvictionError when children were timed out and never returned.
func (s *parentServer) Wait() error {
	<-s.done
	s.l.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.err
	if len(s.evicted) > 0 {
		err = errors.Join(err, &EvictionError{IDs: evictedIDs(s.evicted)})
	}
	return err
}

func (s *parentServer) acceptLoop() {
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// serveConn dispatches on the first message: children say hello, anything
// else goes to the tier. The first message is subject to the liveness
// timeout, so a connected-but-mute socket cannot pin a goroutine.
func (s *parentServer) serveConn(conn *message.TCPConn) {
	first, err := conn.RecvTimeout(s.timeout)
	if err != nil {
		conn.Close()
		return
	}
	if first.Kind == message.KindHello {
		s.serveChild(conn, first)
		return
	}
	s.tier.control(conn, first)
	conn.Close()
}

func (s *parentServer) serveChild(conn *message.TCPConn, hello *message.Message) {
	childID := hello.From
	if s.timeout > 0 {
		conn.SetWriteTimeout(s.timeout)
	}
	s.mu.Lock()
	if prev, live := s.children[childID]; live {
		// A returning id supersedes the stale connection: swap conns
		// without touching counters or merge expectations; the old handler
		// notices it no longer owns the child and exits silently.
		prev.Close()
	} else {
		s.active++
		s.tier.joinLocked(childID) // (re-)join the merge expectations (§3.2)
	}
	s.seenIDs[childID] = true
	delete(s.evicted, childID)
	delete(s.unclean, childID)
	delete(s.goodbye, childID)
	s.children[childID] = conn
	err := conn.Send(planResync(s.tier.historyLocked(), hello.Epoch))
	s.mu.Unlock()

	evicted := false
	for err == nil {
		m, rerr := conn.RecvTimeout(s.timeout)
		if rerr != nil {
			evicted = errors.Is(rerr, message.ErrTimeout)
			if !evicted && !isDisconnect(rerr) {
				s.fail(childID, rerr)
			}
			break
		}
		switch m.Kind {
		case message.KindStatsDump:
			// A child's stats reply belongs to the in-flight collection,
			// not the merge pipeline.
			s.mu.Lock()
			ch := s.statsC
			s.mu.Unlock()
			if ch != nil && m.Stats != nil {
				select {
				case ch <- m.Stats:
				default:
				}
			}
		case message.KindGoodbye:
			s.mu.Lock()
			if s.children[childID] == conn {
				s.goodbye[childID] = true
			}
			s.mu.Unlock()
		case message.KindHeartbeat:
			if m.Load != nil {
				s.mu.Lock()
				s.loads[childID] = m.Load
				s.mu.Unlock()
			}
		default:
			if herr := s.tier.handle(m); herr != nil {
				s.fail(childID, herr)
			}
		}
	}
	conn.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.children[childID] != conn {
		return // superseded by a reconnect; the new handler owns the child
	}
	delete(s.children, childID)
	s.tier.leaveLocked(childID)
	s.active--
	if evicted {
		s.evicted[childID] = true
	}
	if !s.goodbye[childID] {
		s.unclean[childID] = true // may yet reconnect; hold the finish line
	}
	s.maybeDoneLocked()
}

// fail records a child's stream error for Wait, keeping the first one.
func (s *parentServer) fail(childID uint32, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = fmt.Errorf("node: child %d stream: %w", childID, err)
	}
}

// maybeDoneLocked closes done once every expected child has been seen and
// none is active. If any seen child departed without a goodbye it may still
// reconnect, so the signal is deferred by a grace period (the liveness
// timeout); a reconnect in the meantime invalidates the re-check.
func (s *parentServer) maybeDoneLocked() {
	if !s.finishedLocked() {
		if s.doneTimer != nil {
			s.doneTimer.Stop()
			s.doneTimer = nil
		}
		return
	}
	if len(s.unclean) == 0 {
		s.closeDoneLocked()
		return
	}
	if s.doneTimer != nil {
		return // grace period already running
	}
	grace := s.timeout
	if grace <= 0 {
		grace = HeartbeatInterval
	}
	s.doneTimer = time.AfterFunc(grace, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.doneTimer = nil
		if s.finishedLocked() {
			s.closeDoneLocked()
		}
	})
}

// finishedLocked reports whether every expected child has been seen and
// none is connected.
func (s *parentServer) finishedLocked() bool {
	return s.expected > 0 && len(s.seenIDs) >= s.expected && s.active == 0
}

func (s *parentServer) closeDoneLocked() {
	if s.doneTimer != nil {
		s.doneTimer.Stop()
		s.doneTimer = nil
	}
	select {
	case <-s.done:
	default:
		close(s.done)
	}
}

// planResync builds the handshake reply for a child reporting epoch: the
// missing delta suffix when the history reaches back far enough (including
// the empty suffix for an up-to-date child), otherwise the full plan. The
// caller must hold the lock serialising hist.
func planResync(hist *plan.History, epoch uint64) *message.Message {
	if deltas, ok := hist.Since(epoch); ok {
		return &message.Message{Kind: message.KindPlanDelta, Deltas: deltas}
	}
	return &message.Message{Kind: message.KindPlanState, Plan: hist.Plan()}
}

// broadcastLocked sends m to every child, visiting all of them even when
// some fail. A child whose link fails is dropped — its connection is closed
// so the handler runs the removal bookkeeping, and the child resyncs by
// epoch diff when it reconnects — instead of failing the caller and leaving
// the tree inconsistent. The aggregated send errors are returned for
// observability only.
func (s *parentServer) broadcastLocked(m *message.Message) error {
	var errs []error
	for id, c := range s.children {
		if err := c.Send(m); err != nil {
			errs = append(errs, fmt.Errorf("node: broadcast to child %d: %w", id, err))
			c.Close()
		}
	}
	return errors.Join(errs...)
}

// statsWait bounds how long a stats collection waits for child replies, so
// a dead or wedged child cannot stall desis-ctl -stats. Intermediates use
// a shorter bound than the root so their (partial) reply still arrives
// inside the root's window.
const statsWait = 2 * time.Second

// collectStats assembles the subtree's snapshot: per-child lag gauges from
// the latest heartbeat digests, this node's own instruments, and the merged
// snapshots of every child that answers within wait (children forward the
// request down their own subtree, so the recursion covers the tree).
func (s *parentServer) collectStats(wait time.Duration) *telemetry.Snapshot {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()

	s.mu.Lock()
	epoch, wm := s.tier.progressLocked()
	for id, d := range s.loads {
		s.tel.Gauge(fmt.Sprintf("node.%d.epoch_lag", id)).Set(int64(epoch) - int64(d.Epoch))
		s.tel.Gauge(fmt.Sprintf("node.%d.watermark_lag", id)).Set(wm - d.Watermark)
		s.tel.Gauge(fmt.Sprintf("node.%d.replay_occupancy", id)).Set(int64(d.ReplayLen))
	}
	n := len(s.children)
	ch := make(chan *telemetry.Snapshot, n+1)
	s.statsC = ch
	_ = s.broadcastLocked(&message.Message{Kind: message.KindStatsDump})
	s.mu.Unlock()

	snap := s.tel.Snapshot()
	mergeChildStats(snap, ch, n, wait)

	s.mu.Lock()
	s.statsC = nil
	s.mu.Unlock()
	return snap
}

// mergeChildStats folds up to n child snapshots from ch into snap, giving
// up after wait so dead children cannot stall the collection.
func mergeChildStats(snap *telemetry.Snapshot, ch <-chan *telemetry.Snapshot, n int, wait time.Duration) {
	if n == 0 {
		return
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for got := 0; got < n; got++ {
		select {
		case child := <-ch:
			snap.Merge(child)
		case <-deadline.C:
			return
		}
	}
}
