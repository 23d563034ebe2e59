package main

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Sizing fixes how much work each workload does. Populations never change
// with the run length; only round and job counts do.
type Sizing struct {
	SteadyRings int // rings in the steady_* ring of rings
	SteadyNodes int
	SteadyWarm  int // warm-up rounds, part of set-up
	SteadyLap   int // measured rounds per lap; there are steadyLaps laps

	FaultRings  int // rings before the reconfiguration
	FaultNodes  int
	FaultRounds int // whole timeline, scenario tail included

	ServeJobs   int
	ServeRings  int
	ServeNodes  int
	ServeRounds int // rounds per job

	Setups int // set-up is repeated this often and the median reported
}

const steadyLaps = 3

// fullSizing is the benchmark proper. seconds is the measured time the
// driver asked for; the op counts below take about that long per workload
// on the 2-vCPU sandbox the bounds were calibrated on. Counts, not a
// deadline, end a run, so the simulated outputs (and every exact metric)
// are the same on any machine.
func fullSizing(seconds int) Sizing {
	if seconds < 1 {
		seconds = 1
	}
	return Sizing{
		SteadyRings: 20, SteadyNodes: 10000, SteadyWarm: 8, SteadyLap: max(3, 8*seconds/10),
		// The fault timeline needs ~150 rounds to reconverge after its
		// last blast; longer runs stretch it, shorter ones do not cut it.
		FaultRings: 12, FaultNodes: 2000, FaultRounds: max(150, 15*seconds),
		ServeJobs: max(4, 16*seconds/10), ServeRings: 4, ServeNodes: 256, ServeRounds: 100,
		Setups: 3,
	}
}

// smokeSizing runs every code path of every workload in a few seconds; its
// numbers mean nothing.
var smokeSizing = Sizing{
	SteadyRings: 4, SteadyNodes: 300, SteadyWarm: 8, SteadyLap: 4,
	FaultRings: 6, FaultNodes: 300, FaultRounds: 150,
	ServeJobs: 2, ServeRings: 4, ServeNodes: 64, ServeRounds: 20,
	Setups: 1,
}

// Inputs is everything the program under test sees: two .sos sources and
// one job spec, all a function of (seed, sizing).
type Inputs struct {
	Seed        int64
	Steady      string // ring of rings, no scenario
	Faults      string // smaller ring of rings with the fault timeline embedded
	ServeSource string // the small ring of rings every job runs
	ServeSpec   []byte // POST /jobs body: ServeSource with nodes, rounds and seed
}

// splitmix is the generator's own RNG, so the committed seed-1 inputs do
// not depend on a standard-library algorithm.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a value in [lo, hi].
func (s *splitmix) between(lo, hi int) int { return lo + int(s.next()%uint64(hi-lo+1)) }

// Generate derives the inputs from the seed. The seed also seeds the
// simulations themselves (WithSeed / dist.Config.Seed / the spec's "seed").
func Generate(seed int64, sz Sizing) Inputs {
	rng := splitmix(seed)
	in := Inputs{Seed: seed}
	in.Steady = ringOfRings("steady", sz.SteadyRings, sz.SteadyNodes, &rng, "")
	in.Faults = ringOfRings("faults", sz.FaultRings, sz.FaultNodes, &rng, faultTimeline(sz, &rng))
	in.ServeSource = ringOfRings("served", sz.ServeRings, 0, &rng, "")
	spec, err := json.Marshal(map[string]any{
		"name":   "bench",
		"source": in.ServeSource,
		"nodes":  sz.ServeNodes,
		"rounds": sz.ServeRounds,
		"seed":   seed,
	})
	if err != nil {
		panic(err) // a map of strings and ints always marshals
	}
	in.ServeSpec = spec
	return in
}

// ringBody writes k ring components with seed-chosen weights (so the
// population split differs between seeds) closed into a ring of rings.
func ringBody(b *strings.Builder, indent string, k int, rng *splitmix) {
	for i := 0; i < k; i++ {
		fmt.Fprintf(b, "%scomponent seg%d ring {\n%s    weight %d\n%s    port head\n%s    port tail\n%s}\n",
			indent, i, indent, rng.between(3, 5), indent, indent, indent)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(b, "%slink seg%d.head seg%d.tail\n", indent, i, (i+1)%k)
	}
}

func ringOfRings(name string, k, nodes int, rng *splitmix, scenario string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Generated by bench/gen.go; do not edit.\ntopology %s {\n", name)
	if nodes > 0 {
		fmt.Fprintf(&b, "    nodes %d\n", nodes)
	}
	ringBody(&b, "    ", k, rng)
	b.WriteString(scenario)
	b.WriteString("}\n")
	return b.String()
}

// faultTimeline is the scenario block of the faults source: every kind of
// membership mutation the runtime has, at seed-jittered rounds and
// fractions. Positions are shares of the timeline, so a longer run spreads
// the same actions out; the last 40% is left quiet for reconvergence.
func faultTimeline(sz Sizing, rng *splitmix) string {
	at := func(share float64) int {
		return int(share*float64(sz.FaultRounds)) + rng.between(-1, 1)
	}
	frac := func(base float64) float64 { return base + float64(rng.between(-3, 3))/100 }
	after := (sz.FaultRings*2 + 2) / 3 // rings after the reconfiguration

	var b strings.Builder
	b.WriteString("    scenario {\n")
	fmt.Fprintf(&b, "        during %d %d loss %.2f\n", at(0.04), at(0.07), frac(0.20))
	fmt.Fprintf(&b, "        at %d kill %.2f\n", at(0.10), frac(0.30))
	fmt.Fprintf(&b, "        at %d join %d\n", at(0.17), sz.FaultNodes*3/20+rng.between(-5, 5))
	fmt.Fprintf(&b, "        during %d %d churn %.3f\n", at(0.22), at(0.26), 0.02+float64(rng.between(-5, 5))/1000)
	fmt.Fprintf(&b, "        at %d partition 2\n", at(0.30))
	fmt.Fprintf(&b, "        at %d heal\n", at(0.34))
	fmt.Fprintf(&b, "        at %d reconfigure {\n", at(0.39))
	ringBody(&b, "            ", after, rng)
	b.WriteString("            component hub star {\n                weight 2\n                port spoke\n            }\n")
	b.WriteString("            link hub.spoke seg0.head\n        }\n")
	fmt.Fprintf(&b, "        at %d kill component seg%d\n", at(0.52), rng.between(1, after-1))
	fmt.Fprintf(&b, "        at %d kill %.2f\n", at(0.60), frac(0.50))
	b.WriteString("    }\n")
	return b.String()
}
