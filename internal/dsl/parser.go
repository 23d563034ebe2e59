package dsl

import "strconv"

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
}

// Parse turns DSL source into an AST.
func Parse(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	file, err := p.parseFile()
	if err != nil {
		return nil, err
	}
	return file, nil
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(k Kind) (Token, error) {
	t := p.peek()
	if t.Kind != k {
		return t, errf(t.Pos, "expected %s, found %s", k, describe(t))
	}
	return p.next(), nil
}

func (p *parser) expectKeyword(word string) (Token, error) {
	t := p.peek()
	if t.Kind != TokIdent || t.Text != word {
		return t, errf(t.Pos, "expected %q, found %s", word, describe(t))
	}
	return p.next(), nil
}

func describe(t Token) string {
	switch t.Kind {
	case TokIdent, TokNumber:
		return "'" + t.Text + "'"
	case TokString:
		return strconv.Quote(t.Text)
	default:
		return t.Kind.String()
	}
}

func (p *parser) parseFile() (*File, error) {
	start, err := p.expectKeyword("topology")
	if err != nil {
		return nil, err
	}
	name := p.peek()
	switch name.Kind {
	case TokIdent, TokString:
		p.next()
	default:
		return nil, errf(name.Pos, "expected topology name, found %s", describe(name))
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.Kind != TokEOF {
		return nil, errf(t.Pos, "unexpected %s after topology block", describe(t))
	}
	return &File{Pos: start.Pos, Name: name.Text, Body: body}, nil
}

// parseBlock parses `{ stmt* }`.
func (p *parser) parseBlock() ([]Stmt, error) {
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	var body []Stmt
	for {
		t := p.peek()
		switch t.Kind {
		case TokRBrace:
			p.next()
			return body, nil
		case TokEOF:
			return nil, errf(t.Pos, "unterminated block: missing '}'")
		}
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, stmt)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.Kind != TokIdent {
		return nil, errf(t.Pos, "expected statement, found %s", describe(t))
	}
	switch t.Text {
	case "let":
		return p.parseLet()
	case "nodes":
		p.next()
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &NodesStmt{Pos: t.Pos, Value: v}, nil
	case "option":
		return p.parseOption()
	case "repeat":
		return p.parseRepeat()
	case "component":
		return p.parseComponent()
	case "link":
		return p.parseLink()
	case "scenario":
		return p.parseScenario()
	default:
		return nil, errf(t.Pos, "unknown statement %q (expected let, nodes, option, repeat, component, link, or scenario)", t.Text)
	}
}

// parseScenario parses `scenario { (at ROUND | during FROM TO) ACTION ... }`.
func (p *parser) parseScenario() (Stmt, error) {
	kw := p.next()
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	stmt := &ScenarioStmt{Pos: kw.Pos}
	for {
		t := p.peek()
		switch t.Kind {
		case TokRBrace:
			p.next()
			return stmt, nil
		case TokEOF:
			return nil, errf(t.Pos, "unterminated scenario block: missing '}'")
		}
		ev, err := p.parseScenarioEvent()
		if err != nil {
			return nil, err
		}
		stmt.Events = append(stmt.Events, ev)
	}
}

func (p *parser) parseScenarioEvent() (*ScenarioEventStmt, error) {
	t := p.peek()
	if t.Kind != TokIdent || (t.Text != "at" && t.Text != "during") {
		return nil, errf(t.Pos, "expected 'at' or 'during', found %s", describe(t))
	}
	p.next()
	ev := &ScenarioEventStmt{Pos: t.Pos, During: t.Text == "during"}
	var err error
	if ev.From, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if ev.During {
		if ev.To, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	act, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch act.Text {
	case "kill":
		// `kill component NAME` or `kill FRACTION`.
		if n := p.peek(); n.Kind == TokIdent && n.Text == "component" {
			p.next()
			ev.Kind = "kill-component"
			if ev.Component, err = p.parseNameRef(); err != nil {
				return nil, err
			}
			return ev, nil
		}
		ev.Kind = "kill"
		ev.Fraction, err = p.parseFraction()
		return ev, err
	case "loss", "churn":
		ev.Kind = act.Text
		ev.Fraction, err = p.parseFraction()
		return ev, err
	case "join", "partition":
		ev.Kind = act.Text
		ev.Count, err = p.parseExpr()
		return ev, err
	case "heal":
		ev.Kind = "heal"
		return ev, nil
	case "snapshot":
		// `snapshot "checkpoints/ck-%d.snap"` — the path is a string
		// literal; every literal %d in it is replaced by the round number at
		// write time.
		ev.Kind = "snapshot"
		path, err := p.expect(TokString)
		if err != nil {
			return nil, err
		}
		ev.Path = path.Text
		return ev, nil
	case "reconfigure":
		ev.Kind = "reconfigure"
		ev.Body, err = p.parseBlock()
		return ev, err
	default:
		return nil, errf(act.Pos, "unknown scenario action %q (expected kill, join, loss, churn, partition, heal, snapshot, or reconfigure)", act.Text)
	}
}

// parseFraction parses a float literal like `0.5` (plain integers allowed).
func (p *parser) parseFraction() (float64, error) {
	t, err := p.expect(TokNumber)
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(t.Text, 64)
	if err != nil {
		return 0, errf(t.Pos, "invalid fraction %q", t.Text)
	}
	return v, nil
}

func (p *parser) parseLet() (Stmt, error) {
	kw := p.next()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokAssign); err != nil {
		return nil, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &LetStmt{Pos: kw.Pos, Name: name.Text, Value: v}, nil
}

func (p *parser) parseOption() (Stmt, error) {
	kw := p.next()
	key, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	v, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &OptionStmt{Pos: kw.Pos, Key: key.Text, Value: v}, nil
}

func (p *parser) parseRepeat() (Stmt, error) {
	kw := p.next()
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	from, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	to, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &RepeatStmt{Pos: kw.Pos, Var: name.Text, From: from, To: to, Body: body}, nil
}

func (p *parser) parseComponent() (Stmt, error) {
	kw := p.next()
	name, err := p.parseNameRef()
	if err != nil {
		return nil, err
	}
	shape, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	var body []CompStmt
	if p.peek().Kind == TokLBrace {
		body, err = p.parseCompBlock()
		if err != nil {
			return nil, err
		}
	}
	return &ComponentStmt{Pos: kw.Pos, Name: name, Shape: shape.Text, Body: body}, nil
}

func (p *parser) parseCompBlock() ([]CompStmt, error) {
	p.next() // '{'
	var body []CompStmt
	for {
		t := p.peek()
		switch t.Kind {
		case TokRBrace:
			p.next()
			return body, nil
		case TokEOF:
			return nil, errf(t.Pos, "unterminated component block: missing '}'")
		}
		if t.Kind != TokIdent {
			return nil, errf(t.Pos, "expected component statement, found %s", describe(t))
		}
		switch t.Text {
		case "weight":
			p.next()
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			body = append(body, &WeightStmt{Pos: t.Pos, Value: v})
		case "port":
			p.next()
			name, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			body = append(body, &PortStmt{Pos: t.Pos, Name: name.Text})
		case "param":
			p.next()
			key, err := p.expect(TokIdent)
			if err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			body = append(body, &ParamStmt{Pos: t.Pos, Key: key.Text, Value: v})
		default:
			return nil, errf(t.Pos, "unknown component statement %q (expected weight, port, or param)", t.Text)
		}
	}
}

func (p *parser) parseLink() (Stmt, error) {
	kw := p.next()
	a, err := p.parsePortRef()
	if err != nil {
		return nil, err
	}
	b, err := p.parsePortRef()
	if err != nil {
		return nil, err
	}
	return &LinkStmt{Pos: kw.Pos, A: a, B: b}, nil
}

func (p *parser) parseNameRef() (NameRef, error) {
	base, err := p.expect(TokIdent)
	if err != nil {
		return NameRef{}, err
	}
	ref := NameRef{Pos: base.Pos, Base: base.Text}
	if p.peek().Kind == TokLBracket {
		p.next()
		idx, err := p.parseExpr()
		if err != nil {
			return NameRef{}, err
		}
		if _, err := p.expect(TokRBracket); err != nil {
			return NameRef{}, err
		}
		ref.Index = idx
	}
	return ref, nil
}

func (p *parser) parsePortRef() (PortRefExpr, error) {
	name, err := p.parseNameRef()
	if err != nil {
		return PortRefExpr{}, err
	}
	if _, err := p.expect(TokDot); err != nil {
		return PortRefExpr{}, err
	}
	port, err := p.expect(TokIdent)
	if err != nil {
		return PortRefExpr{}, err
	}
	return PortRefExpr{Pos: name.Pos, Name: name, Port: port.Text}, nil
}

// parseExpr parses additive expressions (lowest precedence).
func (p *parser) parseExpr() (Expr, error) {
	x, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokPlus && t.Kind != TokMinus {
			return x, nil
		}
		p.next()
		y, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: t.Pos, Op: t.Kind, X: x, Y: y}
	}
}

// parseTerm parses multiplicative expressions.
func (p *parser) parseTerm() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Kind != TokStar && t.Kind != TokSlash && t.Kind != TokPercent {
			return x, nil
		}
		p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &BinaryExpr{Pos: t.Pos, Op: t.Kind, X: x, Y: y}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokMinus {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Pos: t.Pos, Op: TokMinus, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errf(t.Pos, "expected integer, found %q (fractions are only allowed in scenario actions)", t.Text)
		}
		return &NumberLit{Pos: t.Pos, Value: v}, nil
	case TokIdent:
		p.next()
		return &VarRef{Pos: t.Pos, Name: t.Text}, nil
	case TokLParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return x, nil
	default:
		return nil, errf(t.Pos, "expected expression, found %s", describe(t))
	}
}
