// Opportunistic relay composition: the paper's future-work vision (§5) —
// "a group of nodes could leverage a third-party system as relays and use
// it to remain connected."
//
// Two sensor clusters (cliques) are joined through a dedicated relay
// backbone (a line component). A scripted scenario wipes the backbone out
// mid-run and then re-composes the same clusters around an unrelated
// third-party system — a city mesh modeled as a torus — which takes over
// carrying the link between the clusters. The clusters themselves never
// change shape, and the whole failure story is a `scenario` block in the
// topology's own source instead of a hand-rolled driver loop.
//
//	go run ./examples/iotrelay
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sosf"
)

// relay composes two sensor clusters through a dedicated relay backbone.
// Its timeline: at round 40 a power cut takes out the whole relay line; at
// round 45 the operator's scripted response re-composes both clusters
// around a city mesh.
const relay = `
topology sensors_with_backbone {
    nodes 480

    component east clique {
        weight 1
        port out
    }
    component west clique {
        weight 1
        port out
    }
    component backbone line {
        weight 2
        port left
        port right
    }

    link east.out backbone.left
    link west.out backbone.right

    scenario {
        at 40 kill component backbone
        at 45 reconfigure {
            component east clique {
                weight 1
                port out
            }
            component west clique {
                weight 1
                port out
            }
            # The third-party system: a city-scale mesh that exists for its
            # own purposes; the clusters merely borrow it as a relay.
            component mesh torus {
                param width 8
                weight 4
                port uplink_east
                port uplink_west
            }

            link east.out mesh.uplink_east
            link west.out mesh.uplink_west
        }
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
	sys, err := sosf.New(relay, append([]sosf.Option{sosf.WithSeed(21)}, extra...)...)
	if err != nil {
		return err
	}

	converged := false
	sys.Subscribe(func(ev sosf.RoundEvent) {
		for _, a := range ev.Actions {
			fmt.Fprintf(w, "round %3d: %s (connected=%v)\n", ev.Round, a, sys.Connected())
		}
		if ev.Converged && !converged {
			fmt.Fprintf(w, "round %3d: converged; connected=%v\n", ev.Round, sys.Connected())
		}
		converged = ev.Converged
	})

	if _, err := sys.Step(200); err != nil {
		return err
	}

	rep := sys.Report()
	fmt.Fprintf(w, "\nfinal: %q re-composed via third-party mesh; connected=%v\n",
		rep.Topology, sys.Connected())
	managers := sys.Managers()
	for _, port := range sosf.ManagerPorts(managers) {
		fmt.Fprintf(w, "  %-18s -> node %d\n", port, managers[port])
	}
	return nil
}
