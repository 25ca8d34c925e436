package main

// Ring mode: vetload as the chaos harness for the distributed serving
// plane. With -ring N it spawns N vetd peers (each with its own
// crash-safe store) and one vetrouter on ephemeral ports, replays the
// seeded corpus against the router, and — with -chaos — SIGKILLs a
// seeded sequence of peers mid-run and restarts each on the same
// address and store directory, proving the ring keeps answering
// byte-correct verdicts (zero -check mismatches) through crashes,
// recoveries and whatever network fault profile the router injects.
// Everything shuts down on SIGINT at the end; an unclean exit from any
// process fails the run.

import (
	"strconv"

	"repro/cmd/internal/ringproc"
)

// startRing spawns cfg.ring vetd peers and the router, returning the
// router's base URL.
func startRing(cfg config) (*ringproc.Ring, string, error) {
	tier := strconv.Itoa(int(cfg.tier))
	h, err := ringproc.Start("vetload", cfg.ring, cfg.storeDir,
		ringproc.Spec{Label: "vetd", Bin: cfg.vetdBin, Listen: "vetd: listening on ", Args: func(dir string) []string {
			return []string{"-addr", "127.0.0.1:0", "-tier", tier, "-store", dir}
		}},
		ringproc.Spec{Label: "router", Bin: cfg.routerBin, Listen: "vetrouter: listening on ", Args: func(peers string) []string {
			return []string{
				"-addr", "127.0.0.1:0",
				"-peers", peers,
				"-replicas", strconv.Itoa(cfg.replicas),
				"-tier", tier,
				"-net-faults", cfg.netFaults,
				"-net-seed", strconv.FormatInt(cfg.seed, 10),
				"-seed", strconv.FormatInt(cfg.seed, 10),
			}
		}})
	if err != nil {
		return nil, "", err
	}
	return h, "http://" + h.Router.Addr(), nil
}
