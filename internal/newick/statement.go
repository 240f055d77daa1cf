package newick

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/faultinject"
)

// Event is one step of a Statement walk.
type Event uint8

const (
	// EvOpen: a '(' was read; an internal node begins.
	EvOpen Event = iota + 1
	// EvLeaf: a leaf is complete. Label, Length and HasLength describe it.
	EvLeaf
	// EvClose: an internal node is complete (its ')', label and length
	// were read). Length and HasLength describe its parent edge.
	EvClose
	// EvEnd: the tree's ';' and the rest of the statement were read and
	// are valid. Further Next calls keep returning EvEnd.
	EvEnd
)

// Statement is a pull parser over one Newick statement held in memory:
// it reports the tree as a stream of events (EvOpen, EvLeaf, EvClose in
// input order, so internal nodes close in postorder) without building a
// tree.Tree. It accepts exactly the input Parse accepts, and fails with
// the same *ParseError (message, offset and line) or io.EOF where Parse
// does, so callers that need only leaf names or splits can skip the
// pointer tree and stay interchangeable with Parse. Like Parse, it fires
// faultinject.PointParseTree once per tree.
//
// A Statement is reusable (Reset) and allocates nothing in steady state,
// except for errors and for branch lengths written with an underscore or
// a doubled quote. It is not safe for concurrent use.
type Statement struct {
	s      string
	pos    int // next unread byte: the lexer's consumed position
	peeked bool
	tok    stoken // the lookahead when peeked, else the last token consumed
	state  stState
	depth  int  // '(' read whose ')' is still open
	extra  bool // validating a second tree after the first ';'

	label     []byte
	length    float64
	hasLength bool
}

// stoken is a lexed token: kind, its reported position, and for labels
// the byte range [a, b) of the text (inside the quotes when quoted).
type stoken struct {
	kind   tokenKind
	pos    int
	a, b   int
	quoted bool
	decode bool // bare: has '_'; quoted: has a doubled quote
}

type stState uint8

const (
	stStart   stState = iota
	stNode            // a subtree begins
	stTail            // after ')': the internal node's label and length
	stSep             // after a child: ',' or ')'
	stRootEnd         // after the root: ';' then the trailing check
	stDone
)

// Reset starts a walk over stmt.
func (st *Statement) Reset(stmt string) {
	*st = Statement{s: stmt, label: st.label[:0]}
}

// Label returns the current leaf's name, underscores decoded to spaces and
// quotes resolved as Parse does. Valid after EvLeaf until the next call.
func (st *Statement) Label() []byte { return st.label }

// Length returns the branch length of the node the last EvLeaf or EvClose
// completed; valid only when HasLength reports true.
func (st *Statement) Length() float64 { return st.length }

// HasLength reports whether the last completed node had a ":length".
func (st *Statement) HasLength() bool { return st.hasLength }

// ScanLeafNames resets st to stmt and walks it to the end, checking the
// grammar and calling visit with each leaf name in left-to-right order
// (the order of tree.LeafNames). The name is valid only during the call.
func (st *Statement) ScanLeafNames(stmt string, visit func(name []byte)) error {
	st.Reset(stmt)
	for {
		ev, err := st.Next()
		if err != nil {
			return err
		}
		switch ev {
		case EvLeaf:
			visit(st.label)
		case EvEnd:
			return nil
		}
	}
}

// Next advances to the next event. Errors are those Parse returns for the
// same input: a *ParseError (injected faults included), or io.EOF for a
// statement with no tree.
func (st *Statement) Next() (Event, error) {
	for {
		ev, err := st.step()
		if err != nil {
			return 0, err
		}
		if ev != 0 && !st.extra { // a second tree is only validated
			return ev, nil
		}
	}
}

// step runs the state machine until it produces an event (or, for the
// internal transitions, returns 0 to be called again). Every peek and
// next mirrors Reader.parseNode, so errors carry the same positions.
func (st *Statement) step() (Event, error) {
	tok := &st.tok
	switch st.state {
	case stStart:
		if err := st.peek(); err != nil {
			return 0, err
		}
		if tok.kind == tokEOF {
			return 0, io.EOF
		}
		if err := faultinject.Hit(faultinject.PointParseTree); err != nil {
			return 0, st.errorf(tok.pos, "%s", err)
		}
		st.state = stNode
		return 0, nil

	case stNode:
		if err := st.peek(); err != nil {
			return 0, err
		}
		switch tok.kind {
		case tokOpen:
			st.peeked = false
			st.depth++
			return EvOpen, nil
		case tokLabel:
			st.state = stTail
			return st.tail(true)
		}
		return 0, st.errorf(tok.pos, "expected '(' or label, found %s", tok.kind)

	case stTail:
		return st.tail(false)

	case stSep:
		if err := st.next(); err != nil {
			return 0, err
		}
		switch tok.kind {
		case tokComma:
			st.state = stNode
			return 0, nil
		case tokClose:
			st.depth--
			st.state = stTail
			return 0, nil
		}
		return 0, st.errorf(tok.pos, "expected ',' or ')' in subtree, found %s", tok.kind)

	case stRootEnd:
		if err := st.next(); err != nil {
			return 0, err
		}
		if tok.kind != tokSemi {
			return 0, st.errorf(tok.pos, "expected ';' after tree, found %s", tok.kind)
		}
		if st.extra {
			return 0, &ParseError{Pos: 0, Msg: "unexpected extra tree after ';'"}
		}
		// Parse rejects anything but whitespace and comments after ';' —
		// a second tree is parsed (for its own errors) and then refused.
		if err := st.peek(); err != nil {
			return 0, err
		}
		if tok.kind == tokEOF {
			st.state = stDone
			return EvEnd, nil
		}
		st.extra = true
		st.state = stStart
		return 0, nil
	}
	return EvEnd, nil
}

// tail reads a node's optional label and optional ":length" and completes
// it. leaf is true when no '(' opened the node.
func (st *Statement) tail(leaf bool) (Event, error) {
	tok := &st.tok
	if err := st.peek(); err != nil {
		return 0, err
	}
	named := false
	if tok.kind == tokLabel {
		st.peeked = false
		if leaf {
			st.label = st.appendText(st.label[:0], tok)
			named = len(st.label) > 0
		}
	}
	if err := st.peek(); err != nil {
		return 0, err
	}
	at := tok.pos // where Parse reports a nameless leaf
	st.length, st.hasLength = 0, false
	if tok.kind == tokColon {
		st.peeked = false
		if err := st.next(); err != nil {
			return 0, err
		}
		if tok.kind != tokLabel {
			return 0, st.errorf(tok.pos, "expected branch length after ':', found %s", tok.kind)
		}
		text := st.s[tok.a:tok.b]
		if tok.decode {
			text = string(st.appendText(nil, tok))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(text), 64)
		if err != nil {
			return 0, st.errorf(tok.pos, "invalid branch length %q", text)
		}
		st.length, st.hasLength = v, true
	}
	if leaf && !named {
		return 0, st.errorf(at, "leaf without a name")
	}
	if st.depth == 0 {
		st.state = stRootEnd
	} else {
		st.state = stSep
	}
	if leaf {
		return EvLeaf, nil
	}
	return EvClose, nil
}

// errorf is a *ParseError at pos on the line of the consumed position, as
// the streaming lexer counts it.
func (st *Statement) errorf(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos, Line: 1 + strings.Count(st.s[:st.pos], "\n"), Msg: fmt.Sprintf(format, args...)}
}

// appendText appends a label token's decoded text to dst: underscores
// become spaces in bare labels, doubled quotes one quote in quoted ones.
func (st *Statement) appendText(dst []byte, t *stoken) []byte {
	raw := st.s[t.a:t.b]
	if !t.decode {
		return append(dst, raw...)
	}
	for i := 0; i < len(raw); i++ {
		b := raw[i]
		switch {
		case t.quoted && b == '\'':
			i++ // the second quote of a doubled pair
		case !t.quoted && b == '_':
			b = ' '
		}
		dst = append(dst, b)
	}
	return dst
}

// peek lexes the lookahead token into st.tok unless it is already there.
func (st *Statement) peek() error {
	if st.peeked {
		return nil
	}
	if err := st.lex(); err != nil {
		return err
	}
	st.peeked = true
	return nil
}

// next is peek then consume: st.tok holds the consumed token.
func (st *Statement) next() error {
	err := st.peek()
	st.peeked = false
	return err
}

// lex is lexer.lex over the in-memory statement, into st.tok.
func (st *Statement) lex() error {
	s, t := st.s, &st.tok
	for st.pos < len(s) {
		b := s[st.pos]
		st.pos++
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '[':
			if err := st.skipComment(); err != nil {
				return err
			}
			continue
		case '(':
			t.kind = tokOpen
		case ')':
			t.kind = tokClose
		case ',':
			t.kind = tokComma
		case ':':
			t.kind = tokColon
		case ';':
			t.kind = tokSemi
		case '\'':
			return st.lexQuoted()
		default:
			st.pos--
			return st.lexBare()
		}
		t.pos = st.pos - 1
		return nil
	}
	t.kind, t.pos = tokEOF, st.pos
	return nil
}

func (st *Statement) skipComment() error {
	start := st.pos
	depth := 1
	for st.pos < len(st.s) {
		switch st.s[st.pos] {
		case '[':
			depth++
		case ']':
			depth--
		}
		st.pos++
		if depth == 0 {
			return nil
		}
	}
	return st.errorf(start, "unterminated comment")
}

// lexQuoted reads a quoted label; the opening quote is consumed.
func (st *Statement) lexQuoted() error {
	s, t := st.s, &st.tok
	*t = stoken{kind: tokLabel, pos: st.pos - 1, a: st.pos, quoted: true}
	for st.pos < len(s) {
		b := s[st.pos]
		st.pos++
		if b != '\'' {
			continue
		}
		if st.pos < len(s) && s[st.pos] == '\'' {
			st.pos++
			t.decode = true
			continue
		}
		t.b = st.pos - 1
		return nil
	}
	return st.errorf(t.pos, "unterminated quoted label")
}

// lexBare reads a maximal run of non-structural bytes.
func (st *Statement) lexBare() error {
	s, t := st.s, &st.tok
	*t = stoken{kind: tokLabel, pos: st.pos, a: st.pos}
	for st.pos < len(s) && !structural[s[st.pos]] {
		if s[st.pos] == '_' {
			t.decode = true
		}
		st.pos++
	}
	t.b = st.pos
	if t.a == t.b {
		return st.errorf(t.pos, "empty label")
	}
	return nil
}
