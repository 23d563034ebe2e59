package spec

import (
	"strings"
	"testing"

	"sosf/internal/shapes"
)

// ringPair builds a minimal valid two-component topology.
func ringPair() *Topology {
	return &Topology{
		Name: "pair",
		Components: []Component{
			{Name: "a", Shape: "ring", Weight: 1, Ports: []string{"p"}},
			{Name: "b", Shape: "ring", Weight: 1, Ports: []string{"q"}},
		},
		Links: []Link{{A: PortRef{"a", "p"}, B: PortRef{"b", "q"}}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := ringPair().Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Topology)
		wantSub string
	}{
		{"no components", func(tp *Topology) { tp.Components = nil }, "no components"},
		{"dup component", func(tp *Topology) { tp.Components[1].Name = "a" }, "duplicate component"},
		{"empty name", func(tp *Topology) { tp.Components[0].Name = "" }, "empty name"},
		{"dotted name", func(tp *Topology) { tp.Components[0].Name = "a.b" }, "invalid name"},
		{"bad weight", func(tp *Topology) { tp.Components[0].Weight = 0 }, "weight"},
		{"bad shape", func(tp *Topology) { tp.Components[0].Shape = "blob" }, "unknown shape"},
		{"bad shape param", func(tp *Topology) {
			tp.Components[0].Params = map[string]int64{"width": 1}
		}, "unknown parameter"},
		{"dup port", func(tp *Topology) { tp.Components[0].Ports = []string{"p", "p"} }, "duplicate port"},
		{"unknown link comp", func(tp *Topology) { tp.Links[0].A.Component = "zz" }, "unknown component"},
		{"unknown link port", func(tp *Topology) { tp.Links[0].A.Port = "zz" }, "no port"},
		{"self link", func(tp *Topology) { tp.Links[0].B = tp.Links[0].A }, "itself"},
		{"dup link", func(tp *Topology) {
			tp.Links = append(tp.Links, Link{A: tp.Links[0].B, B: tp.Links[0].A})
		}, "duplicate link"},
	}
	for _, tc := range cases {
		tp := ringPair()
		tc.mutate(tp)
		err := tp.Validate()
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

func TestLookupHelpers(t *testing.T) {
	tp := ringPair()
	if c := tp.Component("b"); c == nil || c.Name != "b" {
		t.Fatal("Component lookup failed")
	}
	if tp.Component("zz") != nil {
		t.Fatal("unknown component should be nil")
	}
	if i := tp.ComponentIndex("b"); i != 1 {
		t.Fatalf("ComponentIndex = %d, want 1", i)
	}
	if i := tp.ComponentIndex("zz"); i != -1 {
		t.Fatalf("ComponentIndex of unknown = %d, want -1", i)
	}
	if !tp.Components[0].HasPort("p") || tp.Components[0].HasPort("x") {
		t.Fatal("HasPort misbehaves")
	}
}

func TestTotalWeight(t *testing.T) {
	tp := ringPair()
	tp.Components[0].Weight = 3
	if got := tp.TotalWeight(); got != 4 {
		t.Fatalf("TotalWeight = %d, want 4", got)
	}
}

func TestOptions(t *testing.T) {
	tp := ringPair()
	if got := tp.Option("rounds", 42); got != 42 {
		t.Fatalf("missing option default = %d, want 42", got)
	}
	tp.SetOption("rounds", 7)
	if got := tp.Option("rounds", 42); got != 7 {
		t.Fatalf("option = %d, want 7", got)
	}
}

func TestStringers(t *testing.T) {
	l := Link{A: PortRef{"a", "p"}, B: PortRef{"b", "q"}}
	if l.String() != "a.p <-> b.q" {
		t.Fatalf("Link.String() = %q", l.String())
	}
	if l.A.String() != "a.p" {
		t.Fatalf("PortRef.String() = %q", l.A.String())
	}
}

func TestNewShapeFromComponent(t *testing.T) {
	c := Component{Name: "g", Shape: "grid", Params: map[string]int64{"width": 5}, Weight: 1}
	s, err := c.NewShape()
	if err != nil {
		t.Fatal(err)
	}
	if g, ok := s.(shapes.Grid); !ok || g.Width != 5 {
		t.Fatalf("shape = %#v, want a width-5 grid", s)
	}
}

func TestInstanceNamesAllowed(t *testing.T) {
	tp := ringPair()
	tp.Components[0].Name = "shard[12]"
	tp.Links[0].A.Component = "shard[12]"
	if err := tp.Validate(); err != nil {
		t.Fatalf("instance-form name rejected: %v", err)
	}
}
