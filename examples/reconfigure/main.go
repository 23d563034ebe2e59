// Live reconfiguration: the paper's experiment (iii), scripted. A ring of
// three rings runs in steady state; a declarative scenario then pushes a
// new target topology with a fourth ring, and later swaps one ring for a
// star. Nothing restarts — the allocator re-derives roles, stale-epoch
// state is evicted on contact, and every layer re-converges while the
// system keeps running.
//
// Where this example once hand-rolled a driver loop around Step and
// ReconfigureSource, the whole experiment is now a `scenario` block in the
// topology's own source plus a round-event subscription that narrates it.
//
//	go run ./examples/reconfigure
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"sosf"
)

// ringsOf builds the components and links of a ring of k rings; the shape
// parameter lets the last component be swapped for a different elementary
// shape.
func ringsOf(k int, lastShape string) string {
	src := ""
	for i := 0; i < k; i++ {
		shape := "ring"
		if i == k-1 {
			shape = lastShape
		}
		src += fmt.Sprintf(`    component seg%d %s {
        weight 1
        port head
        port tail
    }
`, i, shape)
	}
	for i := 0; i < k; i++ {
		src += fmt.Sprintf("    link seg%d.head seg%d.tail\n", i, (i+1)%k)
	}
	return src
}

// source is the whole experiment, declaratively: three rings that scale
// out to four at round 60 and swap the last segment's shape at round 120.
func source() string {
	return fmt.Sprintf(`topology rings_3 {
    nodes 600
%s
    scenario {
        at 60 reconfigure {
%s        }
        at 120 reconfigure {
%s        }
    }
}
`, ringsOf(3, "ring"), ringsOf(4, "ring"), ringsOf(4, "star"))
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example, narrating to w. Extra options are applied
// last, which is how the smoke test injects a tiny population.
func run(w io.Writer, extra ...sosf.Option) error {
	sys, err := sosf.New(source(), append([]sosf.Option{sosf.WithSeed(3)}, extra...)...)
	if err != nil {
		return err
	}

	// The event stream narrates the run: scripted actions as they fire,
	// and every (re-)convergence of the full stack.
	converged := false
	sys.Subscribe(func(ev sosf.RoundEvent) {
		for _, a := range ev.Actions {
			fmt.Fprintf(w, "round %3d: %s\n", ev.Round, a)
		}
		if ev.Converged && !converged {
			fmt.Fprintf(w, "round %3d: all layers converged (%d nodes)\n", ev.Round, ev.Nodes)
		}
		converged = ev.Converged
	})

	if _, err := sys.Step(180); err != nil {
		return err
	}

	rep := sys.Report()
	fmt.Fprintf(w, "\nfinal state: %q, connected=%v, converged=%v\n",
		rep.Topology, sys.Connected(), rep.Converged)
	for _, s := range rep.Subs {
		fmt.Fprintf(w, "  %-26s accuracy %.3f\n", s.Name, s.Final)
	}
	return nil
}
