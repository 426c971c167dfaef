// Command fchain-aggregator runs the optional middle tier of the FChain
// master/slave topology: it registers with the master as the upstream of a
// slave subtree, fans the master's analyze requests out to the slaves
// connected to it, and merges their reports into one reply — cutting the
// master's fan-out from every slave to one connection per subtree.
//
// Slaves join the subtree by running with -via NAME -aggregator ADDR, where
// NAME is this daemon's -name and ADDR its -listen address. An aggregator is
// an optimization, never a dependency: if it dies mid-localization the
// master re-asks its subtree over the slaves' direct connections.
//
// Usage:
//
//	fchain-aggregator -name agg-a -listen 0.0.0.0:7071 -master 10.0.0.1:7070
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fchain"
	"fchain/internal/obs"
)

func main() {
	var (
		name       = flag.String("name", "", "aggregator name; slaves reference it with -via (default: hostname)")
		listen     = flag.String("listen", "127.0.0.1:7071", "listen address for subtree slaves")
		master     = flag.String("master", "127.0.0.1:7070", "master address")
		backoff    = flag.Duration("backoff", 500*time.Millisecond, "initial reconnect backoff after a dropped master connection")
		backoffMax = flag.Duration("backoff-max", 15*time.Second, "reconnect backoff cap")
		debugAddr  = flag.String("debug-addr", "", "HTTP debug server address serving /metrics, /healthz and pprof (empty disables)")
		logLevel   = flag.String("log-level", "info", "stderr log level: debug, info, warn, error")
	)
	flag.Parse()
	if err := run(*name, *listen, *master, *backoff, *backoffMax, *debugAddr, *logLevel); err != nil {
		fmt.Fprintln(os.Stderr, "fchain-aggregator:", err)
		os.Exit(1)
	}
}

func run(name, listen, master string, backoff, backoffMax time.Duration, debugAddr, logLevel string) error {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			return fmt.Errorf("no -name and no hostname: %w", err)
		}
		name = host
	}
	sink, err := obs.NewSink(os.Stderr, logLevel, "")
	if err != nil {
		return err
	}
	log := sink.Logger()

	agg := fchain.NewAggregator(name,
		fchain.WithAggregatorBackoff(backoff, backoffMax),
		fchain.WithAggregatorObs(sink))
	if err := agg.Start(listen); err != nil {
		return err
	}
	defer agg.Close()
	if err := agg.Connect(master); err != nil {
		return err
	}
	if debugAddr != "" {
		dbg, err := obs.StartDebug(debugAddr, obs.DebugConfig{Registry: sink.Registry()})
		if err != nil {
			return err
		}
		defer dbg.Close()
		log.Info("debug server listening", "addr", dbg.Addr())
	}
	fmt.Printf("fchain-aggregator %s listening on %s, registered with %s\n", name, agg.Addr(), master)
	fmt.Printf("point subtree slaves at it with: fchain-slave -via %s -aggregator %s ...\n", name, agg.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	sig := <-sigCh
	log.Info("shutting down", "reason", sig.String())
	fmt.Println("fchain-aggregator: graceful shutdown complete")
	return nil
}
