// Command desis-node runs one node of a decentralized Desis topology over
// TCP. Start the root first, then intermediates, then locals:
//
//	desis-node -role root -listen :7070 -children 1 \
//	    -query "tumbling(1s) average key=0" -query "sliding(10s,2s) max key=0"
//	desis-node -role intermediate -listen :7071 -parent host:7070 -id 1001 -children 2
//	desis-node -role local -parent host:7071 -id 1 -events 1000000 -seed 1
//
// Local nodes replay the deterministic synthetic sensor stream (§6.1.2);
// different -seed values simulate different decentralized data sources.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"desis/internal/core"
	"desis/internal/event"
	"desis/internal/gen"
	"desis/internal/message"
	"desis/internal/node"
	"desis/internal/query"
	"desis/internal/telemetry"
)

type queryList []query.Query

func (q *queryList) String() string { return fmt.Sprintf("%d queries", len(*q)) }

func (q *queryList) Set(s string) error {
	parsed, err := query.ParseAny(s)
	if err != nil {
		return err
	}
	parsed.ID = uint64(len(*q) + 1)
	*q = append(*q, parsed)
	return nil
}

func main() {
	role := flag.String("role", "", "root | intermediate | local")
	listen := flag.String("listen", ":7070", "listen address (root, intermediate)")
	parent := flag.String("parent", "", "parent address (intermediate, local)")
	id := flag.Uint("id", 1, "node id (intermediate, local)")
	children := flag.Int("children", 1, "number of expected children (root, intermediate)")
	timeout := flag.Duration("timeout", 30*time.Second, "child liveness timeout (§3.2); 0 disables")
	text := flag.Bool("text", false, "use the string wire codec instead of binary")
	events := flag.Int("events", 1_000_000, "events to replay (local)")
	seed := flag.Int64("seed", 1, "stream seed (local)")
	keys := flag.Int("keys", 10, "distinct keys in the stream (local)")
	interval := flag.Int64("interval", 1, "mean event spacing in ms (local)")
	quiet := flag.Bool("quiet", false, "suppress per-window output (root)")
	heartbeat := flag.Duration("heartbeat", node.HeartbeatInterval, "idle-uplink heartbeat period (intermediate, local); negative disables")
	retries := flag.Int("reconnect-retries", 8, "uplink reconnect attempts before giving up (intermediate, local)")
	replay := flag.Int("replay-depth", 0, "partial/watermark frames replayed after a reconnect; 0 selects the default, negative disables (intermediate, local)")
	batch := flag.Bool("batch", false, "coalesce uplink partials/watermarks into adaptive columnar batch frames (intermediate, local)")
	batchBytes := flag.Int("batch-bytes", 0, "approximate cap on one batch frame's body in bytes; 0 selects the default (with -batch)")
	batchFrames := flag.Int("batch-frames", 0, "cap on frames coalesced into one batch; 0 selects the default (with -batch)")
	batchCompress := flag.String("batch-compress", "off", "batch body compression: off | on | auto (auto probes the link and backs off when incompressible)")
	instanceTTL := flag.Duration("instance-ttl", 0, "park group instances of keys idle this long in event time; 0 keeps every instance resident (intermediate, local)")
	instanceShards := flag.Int("instance-shards", 0, "key→instance map shard count; 0 selects the engine default (intermediate, local)")
	optimize := flag.Bool("optimize", true, "factor-window plan optimizer (root); -optimize=false ablates it for the whole tree")
	debugAddr := flag.String("debug-addr", "", "serve /debug/stats and /debug/pprof/ over HTTP at this address (any role); empty disables")
	var queries queryList
	flag.Var(&queries, "query", "query in the textual language (repeatable, root only)")
	flag.Parse()

	var codec message.Codec = message.Binary{}
	if *text {
		codec = message.Text{}
	}

	// Intermediates and locals share one registry between the node (via
	// DialOptions) and the debug server; the root's registry lives in its
	// server, so runRoot wires its own debug endpoint.
	opts := dialOpts(codec, *heartbeat, *retries, *replay)
	opts.Tuning = node.EngineTuning{
		InstanceTTL:    instanceTTL.Milliseconds(),
		InstanceShards: *instanceShards,
	}
	if *batch {
		mode, err := parseCompressMode(*batchCompress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "desis-node:", err)
			os.Exit(1)
		}
		opts.Batch = true
		opts.BatchOptions = message.BatcherOptions{
			MaxBytes:  *batchBytes,
			MaxFrames: *batchFrames,
			Compress:  mode,
		}
	}
	if *debugAddr != "" && *role != "root" {
		opts.Telemetry = telemetry.NewRegistry()
		serveDebug(*debugAddr, opts.Telemetry)
	}

	var err error
	switch *role {
	case "root":
		err = runRoot(*listen, queries, *children, *timeout, codec, *quiet, *debugAddr, *optimize)
	case "intermediate":
		err = runIntermediate(*listen, *parent, uint32(*id), *children, *timeout, opts)
	case "local":
		err = runLocal(*parent, uint32(*id), *events, *seed, *keys, *interval, opts)
	default:
		err = fmt.Errorf("unknown -role %q (want root, intermediate, or local)", *role)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "desis-node:", err)
		os.Exit(1)
	}
}

// serveDebug exposes the registry (and pprof) over HTTP in the background.
// Debug serving is best-effort: a bind failure is reported but never takes
// the node down.
func serveDebug(addr string, reg *telemetry.Registry) {
	//lint:ignore goroutinelife the debug server deliberately lives for the process; the node has no reconfiguration that would need it stopped
	go func() {
		if err := http.ListenAndServe(addr, telemetry.DebugMux(reg)); err != nil {
			fmt.Fprintln(os.Stderr, "desis-node: debug server:", err)
		}
	}()
}

func runRoot(listen string, queries []query.Query, children int, timeout time.Duration, codec message.Codec, quiet bool, debugAddr string, optimize bool) error {
	if len(queries) == 0 {
		return fmt.Errorf("root needs at least one -query")
	}
	windows := 0
	srv, err := node.ServeRootOptions(listen, queries, children, timeout, node.RootServeOptions{
		Codec:      codec,
		NoOptimize: !optimize,
		OnResult: func(r core.Result) {
			windows++
			if quiet {
				return
			}
			fmt.Printf("query %d window [%d, %d) n=%d:", r.QueryID, r.Start, r.End, r.Count)
			for _, v := range r.Values {
				if v.OK {
					fmt.Printf(" %s=%.4g", v.Spec, v.Value)
				}
			}
			fmt.Println()
		},
	})
	if err != nil {
		return err
	}
	if debugAddr != "" {
		serveDebug(debugAddr, srv.Telemetry())
	}
	fmt.Fprintf(os.Stderr, "root listening on %s, %d queries, expecting %d children\n",
		srv.Addr(), len(queries), children)
	if err := srv.Wait(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "root done: %d windows answered\n", windows)
	return nil
}

// parseCompressMode maps the -batch-compress flag to a message.CompressMode.
func parseCompressMode(s string) (message.CompressMode, error) {
	switch s {
	case "off":
		return message.CompressOff, nil
	case "on":
		return message.CompressOn, nil
	case "auto":
		return message.CompressAuto, nil
	}
	return 0, fmt.Errorf("unknown -batch-compress %q (want off, on, or auto)", s)
}

// dialOpts assembles the supervised-uplink configuration shared by
// intermediate and local roles.
func dialOpts(codec message.Codec, heartbeat time.Duration, retries, replay int) node.DialOptions {
	return node.DialOptions{
		Codec:       codec,
		Heartbeat:   heartbeat,
		Retry:       node.RetryPolicy{MaxRetries: retries},
		ReplayDepth: replay,
	}
}

func runIntermediate(listen, parent string, id uint32, children int, timeout time.Duration, opts node.DialOptions) error {
	if parent == "" {
		return fmt.Errorf("intermediate needs -parent")
	}
	srv, err := node.ServeIntermediateOptions(listen, parent, id, children, timeout, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "intermediate %d on %s -> %s, expecting %d children\n",
		id, srv.Addr(), parent, children)
	return srv.Wait()
}

func runLocal(parent string, id uint32, events int, seed int64, keys int, interval int64, opts node.DialOptions) error {
	if parent == "" {
		return fmt.Errorf("local needs -parent")
	}
	return node.RunLocalTCPOptions(parent, id, 256, opts, func(l *node.LocalSession) error {
		s := gen.NewStream(gen.StreamConfig{Seed: seed, Keys: keys, IntervalMS: interval})
		start := time.Now()
		var batch []event.Event
		for sent := 0; sent < events; sent += len(batch) {
			n := 512
			if left := events - sent; left < n {
				n = left
			}
			batch = s.NextBatch(batch[:0], n)
			if err := l.Process(batch); err != nil {
				return err
			}
			if sent%(512*16) == 0 {
				if err := l.AdvanceTo(s.Now()); err != nil {
					return err
				}
			}
		}
		if err := l.AdvanceTo(s.Now() + 120_000); err != nil {
			return err
		}
		el := time.Since(start)
		fmt.Fprintf(os.Stderr, "local %d done: %d events in %v (%.2f M events/s)\n",
			id, events, el.Round(time.Millisecond), float64(events)/el.Seconds()/1e6)
		return nil
	})
}
