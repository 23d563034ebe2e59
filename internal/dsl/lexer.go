package dsl

import (
	"fmt"
	"strings"
	"unicode"
)

// lexer turns source text into tokens. '#' starts a comment to end of line.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

// lex tokenizes the whole input.
func lex(src string) ([]Token, error) {
	lx := newLexer(src)
	var out []Token
	for {
		tok, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, tok)
		if tok.Kind == TokEOF {
			return out, nil
		}
	}
}

func (l *lexer) peekByte() (byte, bool) {
	if l.off >= len(l.src) {
		return 0, false
	}
	return l.src[l.off], true
}

func (l *lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *lexer) pos() Pos { return Pos{Line: l.line, Col: l.col} }

func (l *lexer) next() (Token, error) {
	for {
		c, ok := l.peekByte()
		if !ok {
			return Token{Kind: TokEOF, Pos: l.pos()}, nil
		}
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '#':
			for {
				c, ok := l.peekByte()
				if !ok || c == '\n' {
					break
				}
				l.advance()
			}
		default:
			return l.scanToken()
		}
	}
}

func (l *lexer) scanToken() (Token, error) {
	pos := l.pos()
	c, _ := l.peekByte()
	switch {
	case isIdentStart(c):
		return Token{Kind: TokIdent, Text: l.scanWhile(isIdentPart), Pos: pos}, nil
	case c >= '0' && c <= '9':
		text := l.scanWhile(func(b byte) bool { return b >= '0' && b <= '9' || b == '_' })
		// A '.' directly followed by a digit continues the number as a
		// float literal ("0.5"); any other '.' is left for the dot token
		// (so "seg[1].head" still lexes as name-dot-name).
		if c, ok := l.peekByte(); ok && c == '.' && l.off+1 < len(l.src) &&
			l.src[l.off+1] >= '0' && l.src[l.off+1] <= '9' {
			l.advance() // '.'
			frac := l.scanWhile(func(b byte) bool { return b >= '0' && b <= '9' || b == '_' })
			text += "." + frac
		}
		return Token{Kind: TokNumber, Text: strings.ReplaceAll(text, "_", ""), Pos: pos}, nil
	case c == '"':
		return l.scanString(pos)
	}
	l.advance()
	single := map[byte]Kind{
		'{': TokLBrace, '}': TokRBrace, '[': TokLBracket, ']': TokRBracket,
		'(': TokLParen, ')': TokRParen, '.': TokDot, '=': TokAssign,
		'+': TokPlus, '-': TokMinus, '*': TokStar, '/': TokSlash, '%': TokPercent,
	}
	if k, ok := single[c]; ok {
		return Token{Kind: k, Text: string(c), Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", rune(c))
}

func (l *lexer) scanWhile(pred func(byte) bool) string {
	start := l.off
	for {
		c, ok := l.peekByte()
		if !ok || !pred(c) {
			break
		}
		l.advance()
	}
	return l.src[start:l.off]
}

func (l *lexer) scanString(pos Pos) (Token, error) {
	l.advance() // opening quote
	var b strings.Builder
	for {
		c, ok := l.peekByte()
		if !ok || c == '\n' {
			return Token{}, errf(pos, "unterminated string")
		}
		l.advance()
		if c == '"' {
			return Token{Kind: TokString, Text: b.String(), Pos: pos}, nil
		}
		if c == '\\' {
			esc, ok := l.peekByte()
			if !ok {
				return Token{}, errf(pos, "unterminated string")
			}
			l.advance()
			switch esc {
			case '"', '\\':
				b.WriteByte(esc)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return Token{}, errf(pos, "unknown escape %q", fmt.Sprintf("\\%c", esc))
			}
			continue
		}
		// Emit has no spelling for other control bytes, so a string that
		// holds one could not be written back as source.
		if (c < 0x20 && c != '\t') || c == 0x7f {
			return Token{}, errf(pos, "control character %#x in string", c)
		}
		b.WriteByte(c)
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
