package campaign

import (
	"fmt"
	"math"
	"math/rand"

	"sosf/internal/spec"
)

// maxEvents caps the fault events of one sampled timeline.
const maxEvents = 4

// populations is the population axis of the campaign matrix.
var populations = [...]int{64, 128}

// topologies is the base topology axis: three small composites that
// together exercise every elementary shape family the runtime links across
// components (rings, a star core over a grid mesh, a tree feeding a line).
// Each is DSL source carrying components and links only — the campaign
// injects the population, seed, round budget, and fault timeline per run.
var topologies = [...]struct{ name, src string }{
	{name: "ringpair", src: `
topology ringpair {
    component left ring { weight 1 port head port tail }
    component right ring { weight 1 port head port tail }
    link left.head right.tail
    link right.head left.tail
}`},
	{name: "starmesh", src: `
topology starmesh {
    component core star { param hubs 2 weight 1 port up }
    component mesh grid { param width 4 weight 2 port in }
    link core.up mesh.in
}`},
	{name: "treeline", src: `
topology treeline {
    component canopy tree { param arity 2 weight 1 port crown }
    component chain line { weight 1 port head }
    link canopy.crown chain.head
}`},
}

// timelineRand builds the deterministic generator stream for one run's
// timeline, independent of the run's simulation stream.
func timelineRand(runSeed int64) *rand.Rand {
	return rand.New(rand.NewSource(deriveSeed(runSeed, 0x7161)))
}

// generateTimeline samples a randomized fault timeline over the configured
// horizon: churn bursts, loss storms, (cascading) partitions, flash-join
// crowds, kill blasts, targeted component kills, and mid-run
// reconfigurations. Each sampled fault gets its own disjoint lane of
// rounds, so the timeline always passes the stateful-window validation,
// and — unless Config.NoRepair is set — the timeline ends with a
// weight-preserving rebalance at the horizon, matching the allocator's
// contract that member indices re-densify at a reconfiguration. Within
// that contract a clean build's campaign finds zero violations; the
// seeded-failure knobs (PopulationFloor, NoRepair, a tightened ceiling)
// move the bar.
func generateTimeline(rng *rand.Rand, topo *spec.Topology, cfg Config, pop int) []spec.ScenarioEvent {
	n := 1 + rng.Intn(maxEvents)
	if maxLanes := cfg.Horizon / 4; n > maxLanes {
		// Every lane needs room for a small window plus slack.
		n = maxLanes
	}
	if n < 1 {
		n = 1
	}
	laneLen := cfg.Horizon / n
	var events []spec.ScenarioEvent
	for i := 0; i < n; i++ {
		lo := i*laneLen + 1
		hi := (i + 1) * laneLen
		events = append(events, randomEvent(rng, topo, lo, hi, pop, cfg.NoRepair)...)
	}
	if !cfg.NoRepair {
		events = append(events, spec.ScenarioEvent{
			From: cfg.Horizon, To: cfg.Horizon,
			Kind:        spec.ScenReconfigure,
			Reconfigure: reconfigureVariant(topo, -1, cfg.Horizon),
		})
	}
	return events
}

// randomEvent samples one fault inside the [lo, hi] lane. Kill blasts
// come paired with a replacement join a few rounds later (unless
// noRepair) so the population stays near its target; the join crowd
// lands on components by rendezvous hashing, so freed member indices
// refill only statistically — the timeline's trailing rebalance is what
// re-densifies them (see Config.NoRepair).
func randomEvent(rng *rand.Rand, topo *spec.Topology, lo, hi, pop int, noRepair bool) []spec.ScenarioEvent {
	at := func() int { return lo + rng.Intn(hi-lo+1) }
	// replaced places the kill early enough in the lane that the
	// replacement join still fits behind it.
	replaced := func(kill spec.ScenarioEvent, count int) []spec.ScenarioEvent {
		if noRepair {
			kill.From = at()
			kill.To = kill.From
			return []spec.ScenarioEvent{kill}
		}
		killHi := hi - 3
		if killHi < lo {
			killHi = lo
		}
		kill.From = lo + rng.Intn(killHi-lo+1)
		kill.To = kill.From
		join := kill.From + 3
		if join > hi {
			join = hi
		}
		return []spec.ScenarioEvent{
			kill,
			{From: join, To: join, Kind: spec.ScenJoin, Count: count},
		}
	}
	switch rng.Intn(7) {
	case 0: // kill blast, then a replacement crowd
		f := frac(rng, 0.05, 0.25)
		return replaced(spec.ScenarioEvent{Kind: spec.ScenKill, Fraction: f}, int(f*float64(pop))+1)
	case 1: // flash-join crowd
		r := at()
		return []spec.ScenarioEvent{{From: r, To: r, Kind: spec.ScenJoin, Count: pop/10 + rng.Intn(pop/10+1)}}
	case 2: // churn burst
		from, to := window(rng, lo, hi, 2, 6)
		return []spec.ScenarioEvent{{From: from, To: to, Kind: spec.ScenChurn, Fraction: frac(rng, 0.01, 0.05)}}
	case 3: // loss storm
		from, to := window(rng, lo, hi, 2, 6)
		return []spec.ScenarioEvent{{From: from, To: to, Kind: spec.ScenLoss, Fraction: frac(rng, 0.05, 0.30)}}
	case 4: // partition (heals at the window end; two in a row cascade)
		from, to := window(rng, lo, hi, 2, 8)
		return []spec.ScenarioEvent{{From: from, To: to, Kind: spec.ScenPartition, Count: 2 + rng.Intn(2)}}
	case 5: // targeted component blast, then a replacement crowd
		ci := rng.Intn(len(topo.Components))
		comp := topo.Components[ci]
		est := int(float64(pop)*float64(comp.Weight)/float64(topo.TotalWeight())) + 1
		return replaced(spec.ScenarioEvent{Kind: spec.ScenKillComponent, Component: comp.Name}, est)
	default: // mid-run reconfiguration
		r := at()
		target := reconfigureVariant(topo, rng.Intn(len(topo.Components)), r)
		return []spec.ScenarioEvent{{From: r, To: r, Kind: spec.ScenReconfigure, Reconfigure: target}}
	}
}

// frac samples [lo, hi] quantized to two decimals, so emitted reproducers
// stay readable and magnitude halving terminates quickly.
func frac(rng *rand.Rand, lo, hi float64) float64 {
	f := lo + rng.Float64()*(hi-lo)
	f = math.Round(f*100) / 100
	if f < lo {
		f = lo
	}
	return f
}

// window samples a [From, To] window inside the lane with a length of
// minLen..maxLen rounds (clamped to the lane).
func window(rng *rand.Rand, lo, hi, minLen, maxLen int) (int, int) {
	length := minLen + rng.Intn(maxLen-minLen+1)
	if max := hi - lo; length > max {
		length = max
	}
	from := lo + rng.Intn(hi-lo-length+1)
	return from, from + length
}

// reconfigureVariant clones the base topology's structure with one
// component's weight bumped — a minimal but real reconfiguration: the
// allocator reshuffles the population and every layer re-converges onto
// the new proportions. A negative bump keeps every weight unchanged,
// turning the event into a pure rebalance (epoch bump + dense
// reassignment). The clone carries no options or scenario (those belong
// to the outer run).
func reconfigureVariant(topo *spec.Topology, bump, at int) *spec.Topology {
	t := &spec.Topology{Name: fmt.Sprintf("%s@%d", topo.Name, at)}
	for i, c := range topo.Components {
		cc := c
		if len(c.Params) > 0 {
			cc.Params = make(map[string]int64, len(c.Params))
			for k, v := range c.Params {
				cc.Params[k] = v
			}
		}
		cc.Ports = append([]string(nil), c.Ports...)
		if i == bump {
			cc.Weight++
		}
		t.Components = append(t.Components, cc)
	}
	t.Links = append([]spec.Link(nil), topo.Links...)
	return t
}
