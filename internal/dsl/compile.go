package dsl

import (
	"fmt"

	"sosf/internal/spec"
)

// maxInstantiations bounds the total number of statements a compilation may
// execute, guarding against runaway `repeat` ranges.
const maxInstantiations = 1_000_000

// compileBudget is the active statement budget, maxInstantiations unless a
// test lowers it (the fuzz harness does, to keep the per-input cost of
// mutated repeat bombs bounded).
var compileBudget = maxInstantiations

// Compile evaluates the AST into a topology specification. It executes
// `repeat` loops, folds constant expressions, canonicalizes indexed names
// ("seg[3]"), and reports duplicate definitions with source positions.
// The returned spec is not yet validated; ParseTopology validates too.
func Compile(file *File) (*spec.Topology, error) {
	c := &compiler{
		topo:  &spec.Topology{Name: file.Name},
		vars:  make(map[string]int64),
		names: make(map[string]bool),
	}
	if err := c.stmts(file.Body); err != nil {
		return nil, err
	}
	return c.topo, nil
}

// ParseTopology parses, compiles and validates DSL source in one call.
func ParseTopology(src string) (*spec.Topology, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	topo, err := Compile(file)
	if err != nil {
		return nil, err
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return topo, nil
}

type compiler struct {
	topo       *spec.Topology
	vars       map[string]int64
	names      map[string]bool // defined component names (duplicate check is O(1))
	steps      int
	noScenario bool // set inside reconfigure targets (no nested timelines)
}

func (c *compiler) budget(pos Pos) error {
	c.steps++
	if c.steps > compileBudget {
		return errf(pos, "topology too large: more than %d statements executed (runaway repeat?)", compileBudget)
	}
	return nil
}

func (c *compiler) stmts(body []Stmt) error {
	for _, s := range body {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) stmt(s Stmt) error {
	if err := c.budget(s.At()); err != nil {
		return err
	}
	switch s := s.(type) {
	case *LetStmt:
		v, err := c.eval(s.Value)
		if err != nil {
			return err
		}
		c.vars[s.Name] = v
		return nil
	case *NodesStmt:
		v, err := c.eval(s.Value)
		if err != nil {
			return err
		}
		if v < 1 {
			return errf(s.Pos, "nodes must be >= 1, got %d", v)
		}
		c.topo.SetOption("nodes", v)
		return nil
	case *OptionStmt:
		v, err := c.eval(s.Value)
		if err != nil {
			return err
		}
		c.topo.SetOption(s.Key, v)
		return nil
	case *RepeatStmt:
		return c.repeat(s)
	case *ComponentStmt:
		return c.component(s)
	case *LinkStmt:
		return c.link(s)
	case *ScenarioStmt:
		return c.scenario(s)
	default:
		return errf(s.At(), "internal error: unknown statement type %T", s)
	}
}

func (c *compiler) scenario(s *ScenarioStmt) error {
	if c.noScenario {
		return errf(s.Pos, "scenario blocks are not allowed inside a reconfigure target")
	}
	for _, ev := range s.Events {
		if err := c.budget(ev.Pos); err != nil {
			return err
		}
		out, err := c.scenarioEvent(ev)
		if err != nil {
			return err
		}
		c.topo.Scenario = append(c.topo.Scenario, out)
	}
	return nil
}

func (c *compiler) scenarioEvent(ev *ScenarioEventStmt) (spec.ScenarioEvent, error) {
	from, err := c.eval(ev.From)
	if err != nil {
		return spec.ScenarioEvent{}, err
	}
	to := from
	if ev.During {
		if to, err = c.eval(ev.To); err != nil {
			return spec.ScenarioEvent{}, err
		}
	}
	out := spec.ScenarioEvent{
		From:     int(from),
		To:       int(to),
		Kind:     spec.ScenarioKind(ev.Kind),
		Fraction: ev.Fraction,
	}
	switch out.Kind {
	case spec.ScenSnapshot:
		out.Path = ev.Path
	case spec.ScenKillComponent:
		name, err := c.instanceName(ev.Component)
		if err != nil {
			return spec.ScenarioEvent{}, err
		}
		out.Component = name
	case spec.ScenJoin, spec.ScenPartition:
		n, err := c.eval(ev.Count)
		if err != nil {
			return spec.ScenarioEvent{}, err
		}
		out.Count = int(n)
	case spec.ScenReconfigure:
		// The inline body compiles as a topology of its own, inheriting
		// the enclosing `let` bindings so shared constants stay shared.
		sub := &compiler{
			topo:       &spec.Topology{Name: fmt.Sprintf("%s@%d", c.topo.Name, from)},
			vars:       make(map[string]int64, len(c.vars)),
			names:      make(map[string]bool),
			steps:      c.steps,
			noScenario: true,
		}
		for k, v := range c.vars {
			sub.vars[k] = v
		}
		if err := sub.stmts(ev.Body); err != nil {
			return spec.ScenarioEvent{}, err
		}
		c.steps = sub.steps
		out.Reconfigure = sub.topo
	}
	return out, nil
}

func (c *compiler) repeat(s *RepeatStmt) error {
	from, err := c.eval(s.From)
	if err != nil {
		return err
	}
	to, err := c.eval(s.To)
	if err != nil {
		return err
	}
	shadow, hadShadow := c.vars[s.Var]
	defer func() {
		if hadShadow {
			c.vars[s.Var] = shadow
		} else {
			delete(c.vars, s.Var)
		}
	}()
	for i := from; i <= to; i++ {
		c.vars[s.Var] = i
		if err := c.stmts(s.Body); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) component(s *ComponentStmt) error {
	name, err := c.instanceName(s.Name)
	if err != nil {
		return err
	}
	if c.names[name] {
		return errf(s.Pos, "component %q already defined", name)
	}
	c.names[name] = true
	comp := spec.Component{
		Name:   name,
		Shape:  s.Shape,
		Weight: 1,
	}
	for _, cs := range s.Body {
		if err := c.budget(cs.At()); err != nil {
			return err
		}
		switch cs := cs.(type) {
		case *WeightStmt:
			w, err := c.eval(cs.Value)
			if err != nil {
				return err
			}
			if w < 1 {
				return errf(cs.Pos, "component %q: weight must be >= 1, got %d", name, w)
			}
			comp.Weight = w
		case *PortStmt:
			for _, p := range comp.Ports {
				if p == cs.Name {
					return errf(cs.Pos, "component %q: duplicate port %q", name, cs.Name)
				}
			}
			comp.Ports = append(comp.Ports, cs.Name)
		case *ParamStmt:
			v, err := c.eval(cs.Value)
			if err != nil {
				return err
			}
			if comp.Params == nil {
				comp.Params = make(map[string]int64)
			}
			if _, dup := comp.Params[cs.Key]; dup {
				return errf(cs.Pos, "component %q: duplicate param %q", name, cs.Key)
			}
			comp.Params[cs.Key] = v
		default:
			return errf(cs.At(), "internal error: unknown component statement type %T", cs)
		}
	}
	c.topo.Components = append(c.topo.Components, comp)
	return nil
}

func (c *compiler) link(s *LinkStmt) error {
	a, err := c.portRef(s.A)
	if err != nil {
		return err
	}
	b, err := c.portRef(s.B)
	if err != nil {
		return err
	}
	c.topo.Links = append(c.topo.Links, spec.Link{A: a, B: b})
	return nil
}

func (c *compiler) portRef(r PortRefExpr) (spec.PortRef, error) {
	name, err := c.instanceName(r.Name)
	if err != nil {
		return spec.PortRef{}, err
	}
	return spec.PortRef{Component: name, Port: r.Port}, nil
}

// instanceName canonicalizes a possibly-indexed name reference.
func (c *compiler) instanceName(ref NameRef) (string, error) {
	if ref.Index == nil {
		return ref.Base, nil
	}
	idx, err := c.eval(ref.Index)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s[%d]", ref.Base, idx), nil
}

// eval folds a constant expression to an int64.
func (c *compiler) eval(e Expr) (int64, error) {
	switch e := e.(type) {
	case *NumberLit:
		return e.Value, nil
	case *VarRef:
		v, ok := c.vars[e.Name]
		if !ok {
			return 0, errf(e.Pos, "undefined variable %q", e.Name)
		}
		return v, nil
	case *UnaryExpr:
		x, err := c.eval(e.X)
		if err != nil {
			return 0, err
		}
		return -x, nil
	case *BinaryExpr:
		x, err := c.eval(e.X)
		if err != nil {
			return 0, err
		}
		y, err := c.eval(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case TokPlus:
			return x + y, nil
		case TokMinus:
			return x - y, nil
		case TokStar:
			return x * y, nil
		case TokSlash:
			if y == 0 {
				return 0, errf(e.Pos, "division by zero")
			}
			return x / y, nil
		case TokPercent:
			if y == 0 {
				return 0, errf(e.Pos, "modulo by zero")
			}
			// Euclidean modulo: the result has the sign of the divisor,
			// so ring-index arithmetic like (i-1)%n wraps as expected.
			m := x % y
			if m != 0 && (m < 0) != (y < 0) {
				m += y
			}
			return m, nil
		default:
			return 0, errf(e.Pos, "internal error: unknown operator %s", e.Op)
		}
	default:
		return 0, errf(e.At(), "internal error: unknown expression type %T", e)
	}
}
