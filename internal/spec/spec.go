// Package spec defines the compiled topology specification: the list of
// components (elementary shapes with node-assignment weights), the ports
// each component provides, and the links between ports. This is exactly the
// triple the paper's DSL describes — "the superposition of these three
// elements completely defines a target topology".
//
// A spec is produced by the DSL compiler (internal/dsl) or constructed
// programmatically, validated once, and then consumed by the runtime.
package spec

import (
	"fmt"
	"strings"

	"sosf/internal/shapes"
)

// Topology is a complete target-topology description.
type Topology struct {
	// Name labels the topology in reports.
	Name string
	// Components lists the elementary building blocks, in declaration
	// order (their index is their ComponentID at runtime).
	Components []Component
	// Links connects ports of different components.
	Links []Link
	// Options carries integer knobs from the DSL's `option`/`nodes`
	// statements (e.g. "nodes", "rounds", "seed"); interpretation is up
	// to the embedding runtime.
	Options map[string]int64
	// Scenario is the fault/reconfiguration timeline carried by the
	// DSL's `scenario { ... }` block (or spliced in programmatically),
	// in declaration order.
	Scenario []ScenarioEvent
}

// Component is one elementary shape instance.
type Component struct {
	// Name is the unique component name ("shard[3]").
	Name string
	// Shape is a shapes registry name ("ring", "star", ...).
	Shape string
	// Params are shape parameters ("width", "hubs", "arity").
	Params map[string]int64
	// Weight is the component's proportional share of the node
	// population (>= 1; the allocator assigns ~ weight/Σweights of all
	// nodes to it).
	Weight int64
	// Ports are the names of the logical ports this component exposes.
	Ports []string
}

// PortRef names one port of one component.
type PortRef struct {
	Component string
	Port      string
}

// String renders the reference as "component.port".
func (r PortRef) String() string { return r.Component + "." + r.Port }

// Link is an undirected connection between two ports.
type Link struct {
	A, B PortRef
}

// String renders the link.
func (l Link) String() string { return l.A.String() + " <-> " + l.B.String() }

// Option returns the named option or def when absent.
func (t *Topology) Option(key string, def int64) int64 {
	if v, ok := t.Options[key]; ok {
		return v
	}
	return def
}

// SetOption records an option, allocating the map on first use.
func (t *Topology) SetOption(key string, v int64) {
	if t.Options == nil {
		t.Options = make(map[string]int64)
	}
	t.Options[key] = v
}

// Component returns the component with the given name, or nil.
func (t *Topology) Component(name string) *Component {
	for i := range t.Components {
		if t.Components[i].Name == name {
			return &t.Components[i]
		}
	}
	return nil
}

// ComponentIndex returns the index of the named component, or -1.
func (t *Topology) ComponentIndex(name string) int {
	for i := range t.Components {
		if t.Components[i].Name == name {
			return i
		}
	}
	return -1
}

// TotalWeight sums all component weights.
func (t *Topology) TotalWeight() int64 {
	var sum int64
	for i := range t.Components {
		sum += t.Components[i].Weight
	}
	return sum
}

// HasPort reports whether the component exposes the named port.
func (c *Component) HasPort(port string) bool {
	for _, p := range c.Ports {
		if p == port {
			return true
		}
	}
	return false
}

// NewShape instantiates the component's shape from the registry.
func (c *Component) NewShape() (shapes.Shape, error) {
	return shapes.New(c.Shape, c.Params)
}

// Validate checks the specification for structural errors: duplicate or
// invalid names, unknown shapes or shape parameters, bad weights, dangling
// or degenerate links. It returns the first error found.
func (t *Topology) Validate() error {
	if len(t.Components) == 0 {
		return fmt.Errorf("topology %q: no components", t.Name)
	}
	seen := make(map[string]*Component, len(t.Components))
	for i := range t.Components {
		c := &t.Components[i]
		if err := validName(c.Name); err != nil {
			return fmt.Errorf("component %d: %w", i, err)
		}
		if seen[c.Name] != nil {
			return fmt.Errorf("duplicate component %q", c.Name)
		}
		seen[c.Name] = c
		if c.Weight < 1 {
			return fmt.Errorf("component %q: weight must be >= 1, got %d", c.Name, c.Weight)
		}
		if _, err := c.NewShape(); err != nil {
			return fmt.Errorf("component %q: %w", c.Name, err)
		}
		ports := make(map[string]bool, len(c.Ports))
		for _, p := range c.Ports {
			if err := validName(p); err != nil {
				return fmt.Errorf("component %q: port: %w", c.Name, err)
			}
			if ports[p] {
				return fmt.Errorf("component %q: duplicate port %q", c.Name, p)
			}
			ports[p] = true
		}
	}
	links := make(map[string]bool, len(t.Links))
	for i, l := range t.Links {
		for _, ref := range []PortRef{l.A, l.B} {
			// The map lookup (not the linear Component method) keeps link
			// validation linear — machine-generated topologies can carry
			// hundreds of thousands of links.
			c := seen[ref.Component]
			if c == nil {
				return fmt.Errorf("link %d (%s): unknown component %q", i, l, ref.Component)
			}
			if !c.HasPort(ref.Port) {
				return fmt.Errorf("link %d (%s): component %q has no port %q", i, l, ref.Component, ref.Port)
			}
		}
		if l.A == l.B {
			return fmt.Errorf("link %d: port %s linked to itself", i, l.A)
		}
		key := canonicalLink(l)
		if links[key] {
			return fmt.Errorf("link %d: duplicate link %s", i, l)
		}
		links[key] = true
	}
	return t.validateScenario()
}

// canonicalLink normalizes a link so (a,b) and (b,a) collide.
func canonicalLink(l Link) string {
	a, b := l.A.String(), l.B.String()
	if b < a {
		a, b = b, a
	}
	return a + "|" + b
}

// validName accepts non-empty names of letters, digits, '_', and the
// "name[3]" instance form produced by the DSL. Dots and whitespace are
// reserved (port references split on '.').
func validName(s string) error {
	if s == "" {
		return fmt.Errorf("empty name")
	}
	if strings.ContainsAny(s, ". \t\n") {
		return fmt.Errorf("invalid name %q: must not contain dots or whitespace", s)
	}
	return nil
}
