package dsl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"sosf/internal/spec"
)

const ringOfRings = `
# A ring of n rings, the paper's flagship composite topology.
topology ring_of_rings {
    let n = 4
    repeat i 0 n-1 {
        component seg[i] ring {
            weight 1
            port head
            port tail
        }
    }
    repeat i 0 n-1 {
        link seg[i].head seg[(i+1)%n].tail
    }
    option rounds 120
    nodes 800
}
`

func TestLexBasics(t *testing.T) {
	toks, err := lex(`foo 12 "bar" { } [ ] ( ) . = + - * / % # comment`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]Kind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []Kind{
		TokIdent, TokNumber, TokString, TokLBrace, TokRBrace, TokLBracket,
		TokRBracket, TokLParen, TokRParen, TokDot, TokAssign, TokPlus,
		TokMinus, TokStar, TokSlash, TokPercent, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(kinds), len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lex("a\n  b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Fatalf("first token at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{2, 3}) {
		t.Fatalf("second token at %v, want 2:3", toks[1].Pos)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := lex(`"a\"b\n\t\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\"b\n\t\\" {
		t.Fatalf("string = %q", toks[0].Text)
	}
}

func TestLexNumberUnderscores(t *testing.T) {
	toks, err := lex("25_600")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "25600" {
		t.Fatalf("number text = %q", toks[0].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{`"unterminated`, "@", `"bad \x escape"`, "\"raw \x01 byte\""} {
		if _, err := lex(src); err == nil {
			t.Fatalf("lex(%q) should fail", src)
		}
	}
}

func TestParseRingOfRings(t *testing.T) {
	file, err := Parse(ringOfRings)
	if err != nil {
		t.Fatal(err)
	}
	if file.Name != "ring_of_rings" {
		t.Fatalf("name = %q", file.Name)
	}
	if len(file.Body) != 5 {
		t.Fatalf("body has %d statements, want 5", len(file.Body))
	}
	if _, ok := file.Body[1].(*RepeatStmt); !ok {
		t.Fatalf("statement 1 is %T, want *RepeatStmt", file.Body[1])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{``, `expected "topology"`},
		{`topology {`, "expected topology name"},
		{`topology t { component }`, "expected"},
		{`topology t { bogus 3 }`, "unknown statement"},
		{`topology t { component c ring { bogus 1 } }`, "unknown component statement"},
		{`topology t { link a.p }`, "expected"},
		{`topology t { link a b.q }`, "'.'"},
		{`topology t { let x = }`, "expected expression"},
		{`topology t { let x = (1 + 2 }`, "')'"},
		{`topology t { let x = 1 `, "missing '}'"},
		{`topology t { } trailing`, "unexpected"},
		{`topology t { component c[1 ring }`, "']'"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Fatalf("Parse(%q) should fail", tc.src)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Parse(%q) error %q does not contain %q", tc.src, err, tc.wantSub)
		}
	}
}

func TestCompileRingOfRings(t *testing.T) {
	topo, err := ParseTopology(ringOfRings)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Components) != 4 {
		t.Fatalf("components = %d, want 4", len(topo.Components))
	}
	if topo.Components[2].Name != "seg[2]" {
		t.Fatalf("component 2 name = %q", topo.Components[2].Name)
	}
	if len(topo.Links) != 4 {
		t.Fatalf("links = %d, want 4", len(topo.Links))
	}
	// The wraparound link: seg[3].head -> seg[0].tail.
	last := topo.Links[3]
	if last.A.Component != "seg[3]" || last.B.Component != "seg[0]" {
		t.Fatalf("wraparound link = %s", last)
	}
	if topo.Option("rounds", 0) != 120 || topo.Option("nodes", 0) != 800 {
		t.Fatalf("options = %v", topo.Options)
	}
}

func TestCompileShapesAndParams(t *testing.T) {
	topo, err := ParseTopology(`
topology shards {
    component router star {
        param hubs 3
        weight 2
        port query
    }
    component grid0 grid {
        param width 4
        port corner
    }
    link router.query grid0.corner
}`)
	if err != nil {
		t.Fatal(err)
	}
	r := topo.Component("router")
	if r.Params["hubs"] != 3 || r.Weight != 2 {
		t.Fatalf("router = %+v", r)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`topology t { component c ring component c ring }`, "already defined"},
		{`topology t { let x = y }`, "undefined variable"},
		{`topology t { let x = 1/0 }`, "division by zero"},
		{`topology t { let x = 1%0 }`, "modulo by zero"},
		{`topology t { nodes 0 }`, "nodes must be >= 1"},
		{`topology t { component c ring { weight 0 } }`, "weight must be >= 1"},
		{`topology t { component c ring { port p port p } }`, "duplicate port"},
		{`topology t { component c ring { param a 1 param a 2 } }`, "duplicate param"},
		{`topology t { component c blob }`, "unknown shape"},
		{`topology t { component c ring link c.p c.q }`, "no port"},
		{`topology t { repeat i 0 9999999 { component c[i] ring } }`, "topology too large"},
	}
	for _, tc := range cases {
		_, err := ParseTopology(tc.src)
		if err == nil {
			t.Fatalf("ParseTopology(%q) should fail", tc.src)
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("error %q does not contain %q", err, tc.wantSub)
		}
	}
}

func TestErrorsCarryPositions(t *testing.T) {
	_, err := ParseTopology("topology t {\n  let x = y\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "2:") {
		t.Fatalf("error %q should start with line 2", err)
	}
}

func TestRepeatShadowingAndRestore(t *testing.T) {
	topo, err := ParseTopology(`
topology t {
    let i = 100
    repeat i 0 1 {
        component a[i] ring
    }
    component b[i] ring
}`)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Component("b[100]") == nil {
		t.Fatalf("outer binding not restored: %v", topo.Components)
	}
}

func TestNestedRepeat(t *testing.T) {
	topo, err := ParseTopology(`
topology t {
    repeat i 0 2 {
        repeat j 0 1 {
            component c[i*10+j] ring
        }
    }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Components) != 6 {
		t.Fatalf("components = %d, want 6", len(topo.Components))
	}
	if topo.Component("c[21]") == nil {
		t.Fatal("c[21] missing")
	}
}

func TestEmptyRepeatRange(t *testing.T) {
	topo, err := ParseTopology(`
topology t {
    repeat i 5 4 { component c[i] ring }
    component base ring
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Components) != 1 {
		t.Fatalf("components = %d, want 1 (empty range)", len(topo.Components))
	}
}

func TestExpressionArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1+2*3", 7},
		{"(1+2)*3", 9},
		{"-4+10", 6},
		{"7/2", 3},
		{"-7/2", -3},
		{"10%3", 1},
		{"-1%5", 4}, // Euclidean: wraps for ring arithmetic
		{"0-1+5*2", 9},
		{"2*-3", -6},
	}
	for _, tc := range cases {
		src := fmt.Sprintf("topology t { option x %s component c ring }", tc.expr)
		topo, err := ParseTopology(src)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		if got := topo.Option("x", -999); got != tc.want {
			t.Fatalf("%s = %d, want %d", tc.expr, got, tc.want)
		}
	}
}

// Property: the DSL evaluator agrees with a direct Go computation for
// (a + b*i) % m style ring expressions over random operands.
func TestEvalMatchesReference(t *testing.T) {
	f := func(a, b int8, iRaw, mRaw uint8) bool {
		i := int64(iRaw % 20)
		m := int64(mRaw%9) + 1
		src := fmt.Sprintf(
			"topology t { let i = %d option x (%d + %d*i) %% %d component c ring }",
			i, a, b, m)
		topo, err := ParseTopology(src)
		if err != nil {
			return false
		}
		ref := (int64(a) + int64(b)*i) % m
		if ref < 0 {
			ref += m
		}
		return topo.Option("x", -12345) == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a repeat of k components always yields exactly k components.
func TestRepeatCountProperty(t *testing.T) {
	f := func(raw uint8) bool {
		k := int(raw%50) + 1
		src := fmt.Sprintf("topology t { repeat i 0 %d { component c[i] ring } }", k-1)
		topo, err := ParseTopology(src)
		return err == nil && len(topo.Components) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringTopologyName(t *testing.T) {
	topo, err := ParseTopology(`topology "my topology" { component c ring }`)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "my topology" {
		t.Fatalf("name = %q", topo.Name)
	}
}

func TestComponentWithoutBlock(t *testing.T) {
	topo, err := ParseTopology(`topology t { component solo clique }`)
	if err != nil {
		t.Fatal(err)
	}
	c := topo.Component("solo")
	if c == nil || c.Weight != 1 || len(c.Ports) != 0 {
		t.Fatalf("solo = %+v", c)
	}
}

const scenarioSrc = `
topology scripted {
    nodes 200
    let blast = 30
    component a ring {
        weight 1
        port out
    }
    component b ring {
        weight 1
        port in
    }
    link a.out b.in

    scenario {
        during 10 15 loss 0.25
        at blast kill 0.5
        at blast+5 join 40
        during 50 60 churn 0.01
        at 70 partition 2
        at 80 heal
        at 90 kill component b
        at 100 reconfigure {
            component a ring {
                weight 1
                port out
            }
            component c star {
                weight 1
                port in
            }
            link a.out c.in
        }
    }
}
`

func TestCompileScenario(t *testing.T) {
	topo, err := ParseTopology(scenarioSrc)
	if err != nil {
		t.Fatal(err)
	}
	evs := topo.Scenario
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8", len(evs))
	}
	if evs[0].Kind != spec.ScenLoss || evs[0].From != 10 || evs[0].To != 15 || evs[0].Fraction != 0.25 {
		t.Fatalf("loss window = %+v", evs[0])
	}
	if evs[1].Kind != spec.ScenKill || evs[1].From != 30 || evs[1].To != 30 || evs[1].Fraction != 0.5 {
		t.Fatalf("kill (let-bound round) = %+v", evs[1])
	}
	if evs[2].Kind != spec.ScenJoin || evs[2].From != 35 || evs[2].Count != 40 {
		t.Fatalf("join = %+v", evs[2])
	}
	if evs[3].Kind != spec.ScenChurn || evs[3].From != 50 || evs[3].To != 60 || evs[3].Fraction != 0.01 {
		t.Fatalf("churn = %+v", evs[3])
	}
	if evs[4].Kind != spec.ScenPartition || evs[4].Count != 2 {
		t.Fatalf("partition = %+v", evs[4])
	}
	if evs[5].Kind != spec.ScenHeal || evs[5].From != 80 {
		t.Fatalf("heal = %+v", evs[5])
	}
	if evs[6].Kind != spec.ScenKillComponent || evs[6].Component != "b" {
		t.Fatalf("kill component = %+v", evs[6])
	}
	re := evs[7]
	if re.Kind != spec.ScenReconfigure || re.From != 100 || re.Reconfigure == nil {
		t.Fatalf("reconfigure = %+v", re)
	}
	if re.Reconfigure.Name != "scripted@100" {
		t.Fatalf("reconfigure target name = %q", re.Reconfigure.Name)
	}
	if len(re.Reconfigure.Components) != 2 || re.Reconfigure.Components[1].Shape != "star" {
		t.Fatalf("reconfigure target = %+v", re.Reconfigure)
	}
}

func TestScenarioIndexedComponentAndLetInheritance(t *testing.T) {
	src := `
topology t {
    nodes 100
    let n = 2
    repeat i 0 n-1 {
        component seg[i] ring {
            weight 1
            port out
        }
    }
    link seg[0].out seg[1].out
    scenario {
        at 20 kill component seg[n-1]
        at 30 reconfigure {
            repeat i 0 n {
                component seg[i] ring {
                    weight 1
                    port out
                }
            }
            link seg[0].out seg[1].out
            link seg[1].out seg[2].out
        }
    }
}`
	topo, err := ParseTopology(src)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Scenario[0].Component != "seg[1]" {
		t.Fatalf("indexed kill target = %q", topo.Scenario[0].Component)
	}
	// The reconfigure body inherits `let n = 2` from the enclosing scope.
	if got := len(topo.Scenario[1].Reconfigure.Components); got != 3 {
		t.Fatalf("reconfigure target components = %d, want 3", got)
	}
}

func TestScenarioErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"topology t { nodes 10 component c ring { } scenario { at 5 explode 0.5 } }", "unknown scenario action"},
		{"topology t { nodes 10 component c ring { } scenario { when 5 kill 0.5 } }", "expected 'at' or 'during'"},
		{"topology t { nodes 10 component c ring { } scenario { at 5 kill 1.5 } }", "kill fraction"},
		{"topology t { nodes 10 component c ring { } scenario { during 9 3 loss 0.1 } }", "window end"},
		{"topology t { nodes 10 component c ring { } scenario { at 5 kill component ghost } }", "unknown component"},
		{"topology t { nodes 10 component c ring { } scenario { at 5 partition 1 } }", ">= 2 groups"},
		{"topology t { nodes 10 component c ring { } scenario { at 5 reconfigure { component d ring { } scenario { at 9 heal } } } }", "not allowed inside"},
		{"topology t { nodes 1.5 component c ring { } }", "expected integer"},
	}
	for _, tc := range cases {
		_, err := ParseTopology(tc.src)
		if err == nil {
			t.Fatalf("source %q should fail", tc.src)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("source %q: error %q does not mention %q", tc.src, err, tc.want)
		}
	}
}

func TestLexFloats(t *testing.T) {
	toks, err := lex("0.5 12 3.25 seg[1].head")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	var kinds []Kind
	for _, tok := range toks {
		texts = append(texts, tok.Text)
		kinds = append(kinds, tok.Kind)
	}
	if texts[0] != "0.5" || kinds[0] != TokNumber {
		t.Fatalf("float token = %q (%s)", texts[0], kinds[0])
	}
	if texts[2] != "3.25" {
		t.Fatalf("second float = %q", texts[2])
	}
	// "seg[1].head" must still lex the dot as TokDot, not a float.
	wantTail := []Kind{TokIdent, TokLBracket, TokNumber, TokRBracket, TokDot, TokIdent, TokEOF}
	gotTail := kinds[3:]
	if len(gotTail) != len(wantTail) {
		t.Fatalf("tail kinds = %v", gotTail)
	}
	for i := range wantTail {
		if gotTail[i] != wantTail[i] {
			t.Fatalf("tail token %d = %s, want %s", i, gotTail[i], wantTail[i])
		}
	}
}

func TestParseSnapshotDirective(t *testing.T) {
	topo, err := ParseTopology(`topology t {
	    nodes 50
	    component a ring { port p }
	    component b ring { port q }
	    link a.p b.q
	    scenario { at 75 snapshot "ck-%d.sosnap" }
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Scenario) != 1 {
		t.Fatalf("scenario = %+v", topo.Scenario)
	}
	ev := topo.Scenario[0]
	if ev.Kind != "snapshot" || ev.From != 75 || ev.To != 75 || ev.Path != "ck-%d.sosnap" {
		t.Fatalf("event = %+v", ev)
	}
}

func TestSnapshotDirectiveErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{
			"missing path",
			`topology t { nodes 50 component a ring {} scenario { at 5 snapshot } }`,
			"expected string",
		},
		{
			"empty path",
			`topology t { nodes 50 component a ring {} scenario { at 5 snapshot "" } }`,
			"destination path",
		},
		{
			"window form",
			`topology t { nodes 50 component a ring {} scenario { during 5 9 snapshot "x" } }`,
			"point event",
		},
		{
			"round 0",
			`topology t { nodes 50 component a ring {} scenario { at 0 snapshot "x" } }`,
			"round 0 holds nothing",
		},
	}
	for _, tc := range cases {
		if _, err := ParseTopology(tc.src); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
