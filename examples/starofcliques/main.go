// Star of cliques: the paper's motivating real-world topology — a
// MongoDB-style sharded cluster. The router tier is a star component
// (three hub routers, per a mongos/config replica set), and every shard is
// a clique (a replica set whose members all talk to each other). Each
// shard's uplink port is linked to the routers' config port.
//
//	go run ./examples/starofcliques
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sosf"
)

const src = `
# A sharded document store: router star + 6 replica-set cliques.
topology sharded_cluster {
    nodes 480
    let shards = 6

    component routers star {
        param hubs 3
        weight shards
        port config
    }

    repeat i 0 shards-1 {
        component shard[i] clique {
            weight 1
            port uplink
        }
    }
    repeat i 0 shards-1 {
        link routers.config shard[i].uplink
    }
}`

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example, narrating to w. Extra options are applied
// last, which is how the smoke test injects a tiny population.
func run(w io.Writer, extra ...sosf.Option) error {
	opts := append([]sosf.Option{sosf.WithSeed(11)}, extra...)
	sys, err := sosf.New(src, opts...)
	if err != nil {
		return err
	}
	rounds, err := sys.Step(150)
	if err != nil {
		return err
	}
	rep := sys.Report()
	fmt.Fprintf(w, "sharded cluster assembled in %d rounds (converged: %v)\n\n", rounds, rep.Converged)
	fmt.Fprintf(w, "  %d nodes: half routing tier (star), half data tier (6 cliques)\n", rep.Nodes)
	fmt.Fprintf(w, "  realized system connected: %v\n\n", sys.Connected())

	// The uplink managers are the nodes a client driver would treat as
	// each shard's primary contact point.
	managers := sys.Managers()
	fmt.Fprintln(w, "contact points elected by the runtime:")
	for _, p := range sosf.ManagerPorts(managers) {
		fmt.Fprintf(w, "  %-18s -> node %d\n", p, managers[p])
	}

	// Kill a whole shard: the rest of the cluster must stay connected and
	// every other port keeps its manager.
	fmt.Fprintln(w, "\nfailing every node of shard[2]...")
	killed := sys.KillComponent("shard[2]")
	if _, err := sys.Step(40); err != nil {
		return err
	}
	fmt.Fprintf(w, "  %d nodes failed; survivors connected: %v\n", killed, sys.Connected())
	acc := sys.Accuracy()
	fmt.Fprintf(w, "  surviving shapes intact: %.3f, port elections settled: %.3f\n",
		acc["Elementary Topology"], acc["Port Selection"])
	return nil
}
