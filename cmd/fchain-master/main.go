// Command fchain-master runs the FChain master daemon: it accepts slave
// registrations over TCP, probes them with heartbeats, and triggers fault
// localization on demand — either interactively from the console, or as a
// long-lived multi-tenant service consuming SLO-violation events.
//
// Usage:
//
//	fchain-master -listen 0.0.0.0:7070
//
// Commands are read from stdin, one per line:
//
//	slaves                      print registered slaves
//	health                      print per-slave liveness (healthy/degraded/dead)
//	localize <tv>               run fault localization for violation time tv
//	violate <tenant> <app> <tv> submit one SLO violation through the service
//	replay                      re-run journal replay (e.g. after slaves re-registered)
//	history                     print past localizations (tenant/app-tagged)
//	quit                        shut down
//
// Sharded placement: with -vnodes N the master owns component placement —
// slaves connect empty (fchain-slave -sharded), components are announced
// with the `register` console command, and a consistent-hash ring with N
// virtual nodes per slave assigns each component an owner. Membership
// changes trigger automatic rebalancing that moves each component's model
// state with it; `rebalance` and `assignments` drive and inspect placement
// manually.
//
// Service mode: the master always runs the multi-tenant violation intake
// (violate frames over the listener, `violate` on the console). -tenants
// closes the namespace, -tenant-quota sets per-tenant token buckets. Each
// violation is localized at its own tv; only identical concurrent
// violations (same tenant, app and tv) share one localization.
// With -journal set, accepted violations and served verdicts are write-ahead
// journaled; -replay reads them back on the next start (served verdicts
// rebuild the history, accepted-but-unserved violations re-run).
// -journal-max-bytes rotates the journal (three generations kept) so it
// cannot grow without bound.
//
// SIGINT/SIGTERM shut the daemon down gracefully: the service stops
// admitting violations, in-flight localizations drain under -drain, the
// journal is flushed and closed, and the process exits 0.
//
// Observability: -debug-addr starts an HTTP introspection server
// (Prometheus /metrics, /healthz with per-slave liveness, /history,
// /trace/last, pprof), -journal appends machine-readable JSONL pipeline
// events, and -log-level tunes the structured key=value log on stderr.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
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
	listen    string
	timeout   time.Duration
	heartbeat time.Duration
	quorum    float64
	inflight  int
	depsPath  string
	debugAddr string
	logLevel  string

	journalPath     string
	journalMaxBytes int64

	tenants     string
	tenantQuota float64
	replay      bool
	drain       time.Duration

	vnodes      int
	standby     bool
	meshProfile bool
}

// journalKeep is how many rotated journal generations -journal-max-bytes
// retains; replay stitches across them.
const journalKeep = 3

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:7070", "listen address")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "overall per-localization deadline")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 10*time.Second, "slave liveness probe interval (0 disables)")
	flag.Float64Var(&cfg.quorum, "quorum", 0, "slave answer quorum as a fraction in (0,1]: diagnose once met, refuse below it (0 waits for all, best-effort)")
	flag.IntVar(&cfg.inflight, "max-inflight", 0, "max concurrent localizations; excess calls are shed (0 = unlimited)")
	flag.StringVar(&cfg.depsPath, "deps", "", "dependency graph file from offline discovery (optional)")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "HTTP debug server address serving /metrics, /healthz, /history, /trace/last and pprof (empty disables)")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "stderr log level: debug, info, warn, error")
	flag.StringVar(&cfg.journalPath, "journal", "", "append machine-readable JSONL pipeline events to this file (empty disables; required for -replay durability)")
	flag.Int64Var(&cfg.journalMaxBytes, "journal-max-bytes", 0, "rotate the journal once it exceeds this many bytes (0 = never)")
	flag.StringVar(&cfg.tenants, "tenants", "", "comma-separated tenant namespace for service mode (empty admits any tenant name)")
	flag.Float64Var(&cfg.tenantQuota, "tenant-quota", 0, "per-tenant violation quota, violations/minute token bucket (0 = unlimited)")
	flag.BoolVar(&cfg.replay, "replay", false, "with -journal: replay the journal at startup: restore the history from served verdicts, re-run accepted-but-unserved violations")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain deadline for in-flight localizations")
	flag.IntVar(&cfg.vnodes, "vnodes", 0, "enable master-driven component placement over a consistent-hash ring with this many virtual nodes per slave (0 disables sharding; slaves then bring their own component lists)")
	flag.BoolVar(&cfg.meshProfile, "mesh-profile", false, "apply the generated-mesh monitoring profile (wider external-factor spread, relative-magnitude selection floor) instead of the paper defaults")
	flag.BoolVar(&cfg.standby, "standby", false, "with -vnodes: assign every component a warm standby slave and promote it in place when the primary dies (pair with the slaves' -repl-interval)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fchain-master:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.standby && cfg.vnodes <= 0 {
		return fmt.Errorf("-standby requires -vnodes: standbys exist only under sharded placement")
	}
	if cfg.replay && cfg.journalPath == "" {
		return fmt.Errorf("-replay requires -journal: there is no journal to replay")
	}
	sink, err := obs.NewSinkRotating(os.Stderr, cfg.logLevel, cfg.journalPath, cfg.journalMaxBytes, journalKeep)
	if err != nil {
		return err
	}
	defer sink.EventJournal().Close()
	log := sink.Logger()

	var deps *fchain.DependencyGraph
	if cfg.depsPath != "" {
		g, err := fchain.LoadDependencies(cfg.depsPath)
		if err != nil {
			return err
		}
		deps = g
		fmt.Printf("loaded dependency graph: %s\n", deps)
	}
	masterOpts := []fchain.MasterOption{
		fchain.WithHeartbeat(cfg.heartbeat),
		fchain.WithLocalizeTimeout(cfg.timeout),
		fchain.WithQuorum(cfg.quorum),
		fchain.WithAdmission(cfg.inflight),
		fchain.WithMasterObs(sink),
	}
	if cfg.vnodes > 0 {
		masterOpts = append(masterOpts, fchain.WithSharding(cfg.vnodes), fchain.WithStandby(cfg.standby))
	}
	coreCfg := fchain.DefaultConfig()
	if cfg.meshProfile {
		coreCfg = fchain.MeshConfig()
	}
	master := fchain.NewMaster(coreCfg, deps, masterOpts...)
	var tenants []string
	if cfg.tenants != "" {
		for _, t := range strings.Split(cfg.tenants, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tenants = append(tenants, t)
			}
		}
	}
	svc := fchain.NewService(master, fchain.ServiceConfig{
		Tenants:        tenants,
		QuotaPerMinute: cfg.tenantQuota,
	})
	if err := master.Start(cfg.listen); err != nil {
		return err
	}
	defer master.Close()
	if cfg.replay {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
		stats, err := svc.Replay(ctx)
		cancel()
		if err != nil {
			log.Warn("journal replay failed", "err", err)
		} else {
			fmt.Printf("replayed journal: %d events, %d history records, %d re-run (%d failed)\n",
				stats.Events, stats.HistoryRestored, stats.Rerun, stats.RerunFailed)
		}
	}
	if cfg.debugAddr != "" {
		dbg, err := obs.StartDebug(cfg.debugAddr, obs.DebugConfig{
			Registry: sink.Registry(),
			Traces:   sink.TraceRing(),
			Health:   func() any { return master.Health() },
			History:  func() any { return master.History() },
		})
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Info("debug server listening", "addr", dbg.Addr())
	}
	fmt.Printf("fchain-master listening on %s\n", master.Addr())
	fmt.Println("commands: slaves | health | localize <tv> | violate <tenant> <app> <tv> | replay | history | register <comp,...> | rebalance | assignments | quit")

	// Console lines and termination signals merge into one loop so
	// SIGINT/SIGTERM can interrupt a blocked stdin read and drain cleanly.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	lines := make(chan string)
	scanErr := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		scanErr <- sc.Err()
	}()

	shutdown := func(reason string) {
		log.Info("shutting down", "reason", reason, "drain", cfg.drain.String())
		if left := svc.Drain(cfg.drain); left > 0 {
			log.Warn("drain deadline expired", "inflight", left)
		}
		fmt.Println("fchain-master: graceful shutdown complete")
	}
	for {
		var text string
		select {
		case sig := <-sigCh:
			shutdown(sig.String())
			return nil
		case err := <-scanErr:
			shutdown("stdin closed")
			return err
		case text = <-lines:
		}
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "slaves":
			for _, s := range master.Slaves() {
				fmt.Println(" ", s)
			}
			fmt.Printf("  (%d components total)\n", len(master.Components()))
		case "health":
			health := master.Health()
			for _, name := range sortedKeys(health) {
				h := health[name]
				extra := ""
				if h.Misses > 0 {
					extra += fmt.Sprintf(" misses=%d", h.Misses)
				}
				if h.BreakerOpen {
					extra += " breaker=open"
				}
				fmt.Printf("  %s %s%s\n", name, h.State, extra)
			}
		case "localize":
			if len(fields) != 2 {
				fmt.Println("usage: localize <tv>")
				continue
			}
			tv, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				fmt.Println("bad tv:", err)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			res, err := master.Localize(ctx, tv)
			cancel()
			if err != nil {
				fmt.Println("localize failed:", err)
				continue
			}
			printResult(res)
		case "violate":
			if len(fields) != 4 {
				fmt.Println("usage: violate <tenant> <app> <tv>")
				continue
			}
			tv, err := strconv.ParseInt(fields[3], 10, 64)
			if err != nil {
				fmt.Println("bad tv:", err)
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			v, err := svc.Submit(ctx, fields[1], fields[2], tv)
			cancel()
			if err != nil {
				fmt.Println("violate failed:", err)
				continue
			}
			fmt.Println(" ", v)
		case "replay":
			ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
			stats, err := svc.Replay(ctx)
			cancel()
			if err != nil {
				fmt.Println("replay failed:", err)
				continue
			}
			fmt.Printf("  replayed %d events: %d history records, %d re-run (%d failed)\n",
				stats.Events, stats.HistoryRestored, stats.Rerun, stats.RerunFailed)
		case "history":
			for _, rec := range master.History() {
				tag := ""
				if rec.Tenant != "" || rec.App != "" {
					tag = fmt.Sprintf(" [%s/%s]", rec.Tenant, rec.App)
				}
				mark := ""
				if rec.Degraded {
					mark = " (degraded)"
				}
				fmt.Printf("  tv=%d%s %s%s\n", rec.TV, tag, rec.Diagnosis, mark)
			}
		case "register":
			if cfg.vnodes <= 0 {
				fmt.Println("register requires sharded placement (-vnodes > 0)")
				continue
			}
			if len(fields) != 2 {
				fmt.Println("usage: register <comp[,comp...]>")
				continue
			}
			var comps []string
			for _, c := range strings.Split(fields[1], ",") {
				if c = strings.TrimSpace(c); c != "" {
					comps = append(comps, c)
				}
			}
			master.RegisterComponents(comps...)
			fmt.Printf("  registered %d components (%d total); run `rebalance` to place them\n",
				len(comps), master.RegisteredComponents())
		case "rebalance":
			if cfg.vnodes <= 0 {
				fmt.Println("rebalance requires sharded placement (-vnodes > 0)")
				continue
			}
			moved, err := master.Rebalance()
			if err != nil {
				fmt.Println("rebalance failed:", err)
				continue
			}
			fmt.Printf("  rebalanced: %d components moved\n", moved)
		case "assignments":
			if cfg.vnodes <= 0 {
				fmt.Println("assignments requires sharded placement (-vnodes > 0)")
				continue
			}
			asn := master.Assignments()
			for _, owner := range sortedKeys(asn) {
				fmt.Printf("  %s: %d components %v\n", owner, len(asn[owner]), asn[owner])
			}
		case "quit", "exit":
			shutdown("quit command")
			return nil
		default:
			fmt.Printf("unknown command %q\n", fields[0])
		}
	}
}

// printResult renders one localization; map-keyed sections are printed in
// sorted order so console output is reproducible run to run.
func printResult(res fchain.LocalizeResult) {
	fmt.Println(res)
	for _, comp := range sortedKeys(res.Quality) {
		if q := res.Quality[comp]; q.Confidence() < 1 {
			fmt.Printf("  %s: %s\n", comp, q)
		}
	}
	if mq := res.MinQuality(); mq < 1 {
		fmt.Printf("  min quality confidence: %.3f\n", mq)
	}
	if len(res.MissingComponents) > 0 {
		fmt.Printf("  missing components: %s\n", strings.Join(res.MissingComponents, ", "))
	}
	if res.Truncated {
		fmt.Println("  truncated: deadline budget cut some component analyses short")
	}
	for _, comp := range sortedKeys(res.Quarantined) {
		fmt.Printf("  quarantined streams %s: %s\n", comp, strings.Join(res.Quarantined[comp], ", "))
	}
	if res.Stats.Tasks > 0 {
		fmt.Printf("  analysis: %s\n", res.Stats)
	}
	if res.Trace != nil {
		fmt.Printf("  trace: %d spans recorded (see /trace/last with -debug-addr)\n", res.Trace.SpanCount())
	}
	for _, e := range res.Errors {
		fmt.Println("  slave error:", e)
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
