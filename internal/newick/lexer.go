package newick

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// tokenKind enumerates the lexical token classes of the Newick grammar.
type tokenKind int

const (
	tokEOF    tokenKind = iota
	tokOpen             // (
	tokClose            // )
	tokComma            // ,
	tokColon            // :
	tokSemi             // ;
	tokLabel            // bare or quoted label
	tokNumber           // branch length (lexed as a label-like run; parsed later)
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokOpen:
		return "'('"
	case tokClose:
		return "')'"
	case tokComma:
		return "','"
	case tokColon:
		return "':'"
	case tokSemi:
		return "';'"
	case tokLabel:
		return "label"
	case tokNumber:
		return "number"
	default:
		return fmt.Sprintf("tokenKind(%d)", int(k))
	}
}

// token is one lexical unit with its source position (byte offset within the
// current tree's text) for error reporting.
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes a single Newick tree description. It handles:
//   - bare labels (underscores decoded as spaces, per the Newick convention)
//   - single-quoted labels with doubled-quote escapes ('it”s')
//   - bracketed comments [...] which are skipped (including NHX-style)
//   - arbitrary whitespace between tokens
type lexer struct {
	r      *bufio.Reader
	pos    int
	line   int // 1-based, counts '\n' bytes consumed
	peeked *token
	last   byte // most recently read byte, for unreadByte line accounting

	// Per-tree byte budget: when budget > 0, readByte fails once more than
	// budget bytes have been consumed since treeStart. Turns a pathological
	// or hostile tree (one unterminated 100MB "label") into a clean,
	// position-stamped error instead of an unbounded allocation.
	budget    int
	treeStart int
}

func newLexer(r io.Reader) *lexer {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	return &lexer{r: br, line: 1}
}

// startTree marks the budget window for the next tree.
func (l *lexer) startTree() { l.treeStart = l.pos }

func (l *lexer) readByte() (byte, error) {
	if l.budget > 0 && l.pos-l.treeStart >= l.budget {
		return 0, &ParseError{Pos: l.pos, Line: l.line, Limit: true,
			Msg: fmt.Sprintf("tree exceeds %d-byte limit", l.budget)}
	}
	b, err := l.r.ReadByte()
	if err == nil {
		l.pos++
		l.last = b
		if b == '\n' {
			l.line++
		}
	}
	return b, err
}

func (l *lexer) unreadByte() {
	if err := l.r.UnreadByte(); err == nil {
		l.pos--
		if l.last == '\n' {
			l.line--
		}
	}
}

// skipToSemi discards input through the next top-level ';' so a lenient
// reader can resynchronize after a malformed tree. Quoted labels and
// bracket comments are honored so an embedded ';' does not end the skip
// early; the byte budget is NOT applied (the whole point is to get past
// an oversized or mangled tree). Returns io.EOF if input ends first.
func (l *lexer) skipToSemi() error {
	l.peeked = nil
	budget := l.budget
	l.budget = 0
	defer func() { l.budget = budget }()
	depth, inQuote := 0, false
	for {
		b, err := l.readByte()
		if err != nil {
			return err
		}
		switch {
		case inQuote:
			if b == '\'' {
				inQuote = false
			}
		case depth > 0:
			if b == '[' {
				depth++
			} else if b == ']' {
				depth--
			}
		case b == '\'':
			inQuote = true
		case b == '[':
			depth++
		case b == ';':
			return nil
		}
	}
}

// peek returns the next token without consuming it.
func (l *lexer) peek() (token, error) {
	if l.peeked == nil {
		t, err := l.lex()
		if err != nil {
			return token{}, err
		}
		l.peeked = &t
	}
	return *l.peeked, nil
}

// next consumes and returns the next token.
func (l *lexer) next() (token, error) {
	if l.peeked != nil {
		t := *l.peeked
		l.peeked = nil
		return t, nil
	}
	return l.lex()
}

func (l *lexer) lex() (token, error) {
	for {
		b, err := l.readByte()
		if err == io.EOF {
			return token{kind: tokEOF, pos: l.pos}, nil
		}
		if err != nil {
			return token{}, err
		}
		switch {
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			continue
		case b == '[':
			if err := l.skipComment(); err != nil {
				return token{}, err
			}
			continue
		case b == '(':
			return token{kind: tokOpen, text: "(", pos: l.pos - 1}, nil
		case b == ')':
			return token{kind: tokClose, text: ")", pos: l.pos - 1}, nil
		case b == ',':
			return token{kind: tokComma, text: ",", pos: l.pos - 1}, nil
		case b == ':':
			return token{kind: tokColon, text: ":", pos: l.pos - 1}, nil
		case b == ';':
			return token{kind: tokSemi, text: ";", pos: l.pos - 1}, nil
		case b == '\'':
			return l.lexQuoted()
		default:
			l.unreadByte()
			return l.lexBare()
		}
	}
}

// skipComment consumes a bracketed comment. Newick comments may nest.
func (l *lexer) skipComment() error {
	depth := 1
	start := l.pos
	for depth > 0 {
		b, err := l.readByte()
		if err == io.EOF {
			return &ParseError{Pos: start, Line: l.line, Msg: "unterminated comment"}
		}
		if err != nil {
			return err
		}
		switch b {
		case '[':
			depth++
		case ']':
			depth--
		}
	}
	return nil
}

// lexQuoted consumes a single-quoted label; the opening quote has already
// been read. A doubled quote inside the label denotes a literal quote.
func (l *lexer) lexQuoted() (token, error) {
	start := l.pos - 1
	var sb strings.Builder
	for {
		b, err := l.readByte()
		if err == io.EOF {
			return token{}, &ParseError{Pos: start, Line: l.line, Msg: "unterminated quoted label"}
		}
		if err != nil {
			return token{}, err
		}
		if b != '\'' {
			sb.WriteByte(b)
			continue
		}
		nb, err := l.readByte()
		if err == io.EOF {
			return token{kind: tokLabel, text: sb.String(), pos: start}, nil
		}
		if err != nil {
			return token{}, err
		}
		if nb == '\'' {
			sb.WriteByte('\'')
			continue
		}
		l.unreadByte()
		return token{kind: tokLabel, text: sb.String(), pos: start}, nil
	}
}

// lexBare consumes an unquoted label or number: a maximal run of bytes that
// are not structural characters, whitespace, or comment/quote openers.
// Underscores are decoded to spaces per the Newick convention.
func (l *lexer) lexBare() (token, error) {
	start := l.pos
	var sb strings.Builder
	for {
		b, err := l.readByte()
		if err == io.EOF {
			break
		}
		if err != nil {
			return token{}, err
		}
		if structural[b] {
			l.unreadByte()
			break
		}
		if b == '_' {
			sb.WriteByte(' ')
		} else {
			sb.WriteByte(b)
		}
	}
	text := sb.String()
	if text == "" {
		return token{}, &ParseError{Pos: start, Line: l.line, Msg: "empty label"}
	}
	return token{kind: tokLabel, text: text, pos: start}, nil
}

// structural marks the bytes that end a bare label: punctuation, quote
// and comment delimiters, and whitespace.
var structural = func() (t [256]bool) {
	for _, b := range []byte("(),:;[]' \t\n\r") {
		t[b] = true
	}
	return t
}()
