// Quickstart: describe a two-component topology in the DSL, let the
// runtime self-assemble it, and print the convergence report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sosf"
)

// Two rings joined by one link: the smallest interesting assembly.
const src = `
topology quickstart {
    nodes 200

    component left ring {
        weight 1
        port gateway
    }
    component right ring {
        weight 1
        port gateway
    }

    link left.gateway right.gateway
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
	opts := append([]sosf.Option{sosf.WithSeed(1)}, extra...)

	// One call: compile the DSL, allocate the nodes across the two rings,
	// run the gossip stack until every layer converged.
	report, err := sosf.Run(src, opts...)
	if err != nil {
		return err
	}
	fmt.Fprint(w, report)

	// The managers of the two gateway ports carry the inter-ring link.
	sys, err := sosf.New(src, opts...)
	if err != nil {
		return err
	}
	if _, err := sys.Step(100); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nport managers:")
	managers := sys.Managers()
	for _, port := range sosf.ManagerPorts(managers) {
		fmt.Fprintf(w, "  %-16s -> node %d\n", port, managers[port])
	}
	fmt.Fprintf(w, "\nrealized system connected: %v\n", sys.Connected())
	return nil
}
