// Ring of rings: the paper's flagship composite topology — eight
// elementary rings whose heads and tails are linked into one large cycle.
// Prints the per-layer convergence timeline, exactly the series of the
// paper's Figure 2/3 legends.
//
//	go run ./examples/ringofrings
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sosf"
)

const src = `
# Eight rings composed into a ring of rings.
topology ring_of_rings {
    nodes 800
    let k = 8

    repeat i 0 k-1 {
        component seg[i] ring {
            weight 1
            port head
            port tail
        }
    }
    repeat i 0 k-1 {
        link seg[i].head seg[(i+1)%k].tail
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
	opts := append([]sosf.Option{sosf.WithSeed(7), sosf.WithRunToEnd()}, extra...)
	sys, err := sosf.New(src, opts...)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "round  elementary  uo1    uo2    ports  links")
	for round := 1; round <= 30; round++ {
		if _, err := sys.Step(1); err != nil {
			return err
		}
		acc := sys.Accuracy()
		fmt.Fprintf(w, "%5d  %.3f       %.3f  %.3f  %.3f  %.3f\n",
			round,
			acc["Elementary Topology"],
			acc["Same-component (UO1)"],
			acc["Distant-component (UO2)"],
			acc["Port Selection"],
			acc["Port Connection"])
		if sys.Report().Converged {
			fmt.Fprintf(w, "\nfully converged after %d rounds\n", round)
			break
		}
	}
	rep := sys.Report()
	fmt.Fprintf(w, "\n%d nodes assembled into %d components with %d links; connected: %v\n",
		rep.Nodes, rep.Components, rep.Links, sys.Connected())
	fmt.Fprintf(w, "bandwidth per node per round: %.0f B shapes + %.0f B runtime\n",
		rep.BaselineBytes, rep.OverheadBytes)
	return nil
}
