package main

import (
	"io"
	"time"

	"sosf"
	"sosf/internal/dsl"
	"sosf/internal/sim"
	"sosf/internal/view"
)

// The probes time single calls into one layer, outside any round, so a
// layer's cost can be followed even where a round hides it.

// probeCompile is the median of 20 DSL compilations of the source.
func probeCompile(tr *Trace, src string) float64 {
	var d []float64
	for i := 0; i < 20; i++ {
		d = append(d, ms(tr.timed(0, "dsl.compile", -1, func() { _, _ = dsl.ParseTopology(src) })))
	}
	return median(d)
}

// probeEncode is the cost in µs of one JSONLSink call on a captured event.
func probeEncode(ev sosf.RoundEvent) float64 {
	const n = 2000
	sink := sosf.JSONLSink(io.Discard)
	start := time.Now()
	for i := 0; i < n; i++ {
		sink(ev)
	}
	return float64(time.Since(start).Nanoseconds()) / n / 1e3
}

// probeView times the two view primitives every gossip exchange is made
// of, at the sizes the protocols use: merging one 20-entry view with two
// 5-entry buffers through a reused Merger, and sampling 5 of 20 with a
// counter-based stream.
func probeView(layer map[string]float64) {
	desc := func(id int) view.Descriptor {
		return view.Descriptor{ID: view.NodeID(id), Age: uint16(id % 7), Profile: view.Profile{Comp: 1, Index: int32(id), Size: 64}}
	}
	var own, a, b []view.Descriptor
	for i := 0; i < 20; i++ {
		own = append(own, desc(i))
	}
	for i := 0; i < 5; i++ {
		a = append(a, desc(15+i)) // half overlap with the view
		b = append(b, desc(40+i))
	}
	const n = 200000
	var m view.Merger
	var sink int
	start := time.Now()
	for i := 0; i < n; i++ {
		sink += len(view.MergeInto(&m, view.NodeID(i%20), own, a, b))
	}
	layer["view.merge_ns_op"] = float64(time.Since(start).Nanoseconds()) / n

	var s view.Sampler
	dst := make([]view.Descriptor, 0, 5)
	start = time.Now()
	for i := 0; i < n; i++ {
		rng := sim.NewStream(1, view.NodeID(i), i, 3)
		sink += len(view.SampleInto(&rng, own, 5, dst[:0], &s))
	}
	layer["view.sample_ns_op"] = float64(time.Since(start).Nanoseconds()) / n
	_ = sink
}
