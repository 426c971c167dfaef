// Command fchain-slave runs the FChain slave daemon for one host: it feeds
// metric samples into the per-component online models and answers the
// master's analyze requests.
//
// Samples are read from stdin as CSV lines:
//
//	component,time,metric,value
//	db,1041,cpu,37.2
//
// where metric is one of cpu, memory, net_in, net_out, disk_read,
// disk_write. A production deployment would replace the stdin feed with a
// libvirt/libxenstat collector, which is exactly the boundary the paper's
// slave daemon sits at.
//
// The feed goes through the sanitizing ingest path: out-of-order samples
// are reordered within -reorder-window seconds, duplicates and NaN/Inf
// values are dropped, short gaps are interpolated, and every repair is
// counted against the component's data quality, which the master surfaces
// with each diagnosis. With -checkpoint-dir set, the daemon periodically
// writes each component's state (learned models, ring tails and sanitizer
// state, as the full frame replication ships) to a checksummed file and
// restores it on the next start, so a crash costs only the samples since
// the last checkpoint. A file it cannot use, such as one written by a build
// with the previous checkpoint format, cold-starts that component.
//
// Usage:
//
//	some-collector | fchain-slave -name host1 -components web,app1 -master 10.0.0.1:7070
//
// Topology: with -sharded the slave starts empty and the master (running
// with -vnodes) assigns it components over the consistent-hash ring, moving
// model state along on rebalances. With -via NAME -aggregator ADDR the slave
// reports through an aggregator tier: it registers the aggregator's name
// with the master and additionally connects to the aggregator, which fans
// the master's analyze requests out over that second connection.
//
// Observability: -debug-addr starts an HTTP introspection server
// (Prometheus /metrics with ingest/analyze counters, /healthz, the most
// recent analysis traces, pprof), -journal appends JSONL events (analyze
// requests, connection state changes), and -log-level tunes the structured
// key=value log on stderr.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fchain"
	"fchain/internal/obs"
)

// config bundles every flag so run stays callable without a parameter
// avalanche.
type config struct {
	name       string
	components string
	master     string
	backoff    time.Duration
	backoffMax time.Duration
	ckptDir    string
	reorder    int
	parallel   int
	inflight   int
	debugAddr  string
	journal    string
	logLevel   string

	sharded     bool
	via         string
	aggAddr     string
	streaming   bool
	replEvery   time.Duration
	meshProfile bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.name, "name", "", "slave name (default: hostname)")
	flag.StringVar(&cfg.components, "components", "", "comma-separated component names monitored by this host")
	flag.StringVar(&cfg.master, "master", "127.0.0.1:7070", "master address")
	flag.DurationVar(&cfg.backoff, "backoff", 500*time.Millisecond, "initial reconnect backoff after a dropped master connection")
	flag.DurationVar(&cfg.backoffMax, "backoff-max", 15*time.Second, "reconnect backoff cap")
	flag.StringVar(&cfg.ckptDir, "checkpoint-dir", "", "directory for crash-safe model checkpoints, written every 30s and on shutdown (empty disables)")
	flag.IntVar(&cfg.reorder, "reorder-window", 5, "seconds a sample may arrive out of order before it is dropped (-1 disables reordering)")
	flag.IntVar(&cfg.parallel, "parallel", 0, "analysis workers per analyze request (0 = all cores, 1 = serial)")
	flag.IntVar(&cfg.inflight, "max-inflight", 0, "max concurrent analyze requests; excess requests are shed (0 = unlimited)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "HTTP debug server address serving /metrics, /healthz, /trace/last and pprof (empty disables)")
	flag.StringVar(&cfg.journal, "journal", "", "append machine-readable JSONL events to this file (empty disables)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "stderr log level: debug, info, warn, error")
	flag.BoolVar(&cfg.sharded, "sharded", false, "start with no components of your own: the master assigns them over its consistent-hash ring (requires a master started with -vnodes)")
	flag.StringVar(&cfg.via, "via", "", "aggregator name this slave reports through (tree topology)")
	flag.StringVar(&cfg.aggAddr, "aggregator", "", "aggregator address to also connect to (required with -via)")
	flag.BoolVar(&cfg.streaming, "streaming", false, "maintain streaming selection state on every sample so analyze answers in ~O(diagnose); falls back to the batch kernel (bit-identically) whenever the state is cold")
	flag.DurationVar(&cfg.replEvery, "repl-interval", 0, "ship owned components' state deltas to their warm standbys every interval (0 disables; requires a master started with -standby)")
	flag.BoolVar(&cfg.meshProfile, "mesh-profile", false, "apply the generated-mesh monitoring profile (wider external-factor spread, relative-magnitude selection floor) instead of the paper defaults")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fchain-slave:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	name := cfg.name
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			return fmt.Errorf("no -name and no hostname: %w", err)
		}
		name = host
	}
	var comps []string
	if cfg.components != "" {
		comps = strings.Split(cfg.components, ",")
	}
	if len(comps) == 0 && !cfg.sharded {
		return fmt.Errorf("-components is required (or pass -sharded to let the master assign them)")
	}
	if len(comps) > 0 && cfg.sharded {
		return fmt.Errorf("-sharded and -components are mutually exclusive: the master owns placement")
	}
	if (cfg.via == "") != (cfg.aggAddr == "") {
		return fmt.Errorf("-via and -aggregator must be set together")
	}
	sink, err := obs.NewSink(os.Stderr, cfg.logLevel, cfg.journal)
	if err != nil {
		return err
	}
	defer sink.EventJournal().Close()
	log := sink.Logger()
	// Collection is local, so master outages only cost their own duration;
	// the sink's logger records every link-state transition.
	opts := []fchain.SlaveOption{
		fchain.WithBackoff(cfg.backoff, cfg.backoffMax),
		fchain.WithSlaveObs(sink),
	}
	if cfg.ckptDir != "" {
		opts = append(opts, fchain.WithCheckpointDir(cfg.ckptDir))
	}
	if cfg.inflight > 0 {
		opts = append(opts, fchain.WithSlaveAdmission(cfg.inflight))
	}
	if cfg.via != "" {
		opts = append(opts, fchain.WithVia(cfg.via))
	}
	if cfg.replEvery > 0 {
		opts = append(opts, fchain.WithReplication(cfg.replEvery))
	}
	coreCfg := fchain.DefaultConfig()
	if cfg.meshProfile {
		coreCfg = fchain.MeshConfig()
	}
	coreCfg.ReorderWindow = cfg.reorder
	coreCfg.Parallelism = cfg.parallel
	coreCfg.Streaming = cfg.streaming
	slave := fchain.NewSlave(name, comps, coreCfg, opts...)
	if restored := slave.RestoredComponents(); len(restored) > 0 {
		fmt.Printf("restored checkpointed models for %v\n", restored)
	}
	if err := slave.Connect(cfg.master); err != nil {
		return err
	}
	defer slave.Close()
	if cfg.aggAddr != "" {
		// Second registration: the subtree connection the aggregator fans
		// analyze requests out over (the master routes via the -via name).
		if err := slave.Connect(cfg.aggAddr); err != nil {
			return err
		}
	}
	if cfg.debugAddr != "" {
		dbg, err := obs.StartDebug(cfg.debugAddr, obs.DebugConfig{
			Registry: sink.Registry(),
			Traces:   sink.TraceRing(),
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Info("debug server listening", "addr", dbg.Addr())
	}
	fmt.Printf("fchain-slave %s registered with %s, monitoring %v\n", name, cfg.master, comps)

	// The sample feed runs on its own goroutine so SIGINT/SIGTERM can
	// interrupt a blocked stdin read: on a signal the daemon exits 0 through
	// the deferred slave.Close(), which writes a final model checkpoint —
	// a kill-and-restart costs only the samples since that checkpoint.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	feedDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		line := 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			comp, t, kind, value, err := parseSample(text)
			if err != nil {
				log.Warn("bad sample line", "line", line, "err", err)
				continue
			}
			// Ingest, not Observe: real collectors hiccup, so the feed goes
			// through the sanitizer (reordering, dedup, gap fill) and dirt is
			// counted against the component's data quality instead of being a
			// per-line error.
			if err := slave.Ingest(comp, t, kind, value); err != nil {
				log.Warn("ingest rejected sample", "line", line, "err", err)
			}
		}
		feedDone <- sc.Err()
	}()
	for {
		select {
		case sig := <-sigCh:
			log.Info("shutting down", "reason", sig.String())
			fmt.Println("fchain-slave: graceful shutdown complete")
			return nil
		case err := <-feedDone:
			if err != nil {
				return err
			}
			// The sample feed ended, but the daemon keeps serving the
			// master's analyze requests until it is terminated.
			fmt.Println("sample feed drained; continuing to serve analyze requests")
			feedDone = nil // only announce once; keep waiting for a signal
		}
	}
}

// parseSample parses "component,time,metric,value".
func parseSample(text string) (string, int64, fchain.Kind, float64, error) {
	parts := strings.Split(text, ",")
	if len(parts) != 4 {
		return "", 0, 0, 0, fmt.Errorf("want component,time,metric,value, got %q", text)
	}
	t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("bad time: %w", err)
	}
	kind, err := fchain.ParseKind(strings.TrimSpace(parts[2]))
	if err != nil {
		return "", 0, 0, 0, err
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(parts[3]), 64)
	if err != nil {
		return "", 0, 0, 0, fmt.Errorf("bad value: %w", err)
	}
	return strings.TrimSpace(parts[0]), t, kind, v, nil
}
