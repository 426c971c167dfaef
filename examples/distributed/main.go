// Distributed deployment: the paper's Fig. 1 architecture on localhost.
// One fchain master and one slave per simulated host talk over TCP; the
// slaves run the per-component online models, the master triggers them and
// runs the integrated diagnosis when the SLO violation is detected.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"fchain"
	"fchain/scenario"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The monitored application: RUBiS with a CPU hog at the database.
	sys, err := scenario.RUBiS(1)
	if err != nil {
		return err
	}
	const inject = 1500
	if err := sys.Inject(scenario.NewCPUHog(inject, 1.7, "db")); err != nil {
		return err
	}
	sys.RunUntil(inject + 700)
	tv, found := sys.FirstViolation(inject, 8)
	if !found {
		return fmt.Errorf("no SLO violation")
	}

	// Master with the offline-discovered dependency graph.
	deps := fchain.DiscoverDependencies(sys.DependencyTrace(600, 1), fchain.DiscoverConfig{})
	master := fchain.NewMaster(fchain.DefaultConfig(), deps)
	if err := master.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer master.Close()
	fmt.Println("master listening on", master.Addr())

	// One slave per host (here: one component per host).
	var slaves []*fchain.Slave
	for _, comp := range sys.Components() {
		slave := fchain.NewSlave("host-"+comp, []string{comp}, fchain.DefaultConfig())
		// Feed the host's collected metrics (in production: libvirt stats).
		for _, kind := range fchain.Kinds() {
			series, err := sys.Series(comp, kind)
			if err != nil {
				return err
			}
			for i := 0; i < series.Len() && series.TimeAt(i) <= tv; i++ {
				if err := slave.Observe(comp, series.TimeAt(i), kind, series.At(i)); err != nil {
					return err
				}
			}
		}
		if err := slave.Connect(master.Addr()); err != nil {
			return err
		}
		slaves = append(slaves, slave)
		fmt.Println("slave registered:", slave.Name())
	}
	defer func() {
		for _, s := range slaves {
			s.Close()
		}
	}()

	// Wait for registrations, then trigger localization for the violation.
	deadline := time.Now().Add(2 * time.Second)
	for len(master.Slaves()) < len(slaves) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("SLO violation at t=%d — triggering distributed localization\n", tv)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := master.Localize(ctx, tv)
	if err != nil {
		return err
	}
	fmt.Println("diagnosis:", res)
	return nil
}
