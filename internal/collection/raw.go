package collection

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/newick"
)

// ErrRawUnsupported is returned by NextRaw when the underlying format
// cannot be split into raw per-tree statements (e.g. NEXUS with a
// TRANSLATE table, whose trees are not self-contained).
var ErrRawUnsupported = errors.New("collection: raw statements unsupported for this format")

// RawSource is implemented by sources that can hand out *unparsed* tree
// statements, letting engines parse in parallel workers — the "parallelize
// the reading of trees" dimension of the paper's DSMP/BFHRF design.
// NextRaw returns one complete Newick statement (terminated by ';') per
// call and io.EOF at the end. RawActive reports, without reading, whether
// NextRaw hands out statements on the current pass (after Reset); when it
// is false NextRaw returns ErrRawUnsupported.
type RawSource interface {
	Source
	NextRaw() (string, error)
	RawActive() bool
}

// RawActive implements RawSource: true for plain Newick read without
// ingest options.
func (s *File) RawActive() bool { return s.raw != nil }

// RawActive implements RawSource by delegation.
func (h *Head) RawActive() bool {
	rs, ok := h.Src.(RawSource)
	return ok && rs.RawActive()
}

// rawErr turns an error from parsing the statement NextRaw last returned
// into the error Next reports for the same tree: a *newick.ParseError
// moves from statement to stream coordinates, and the path is prefixed.
func (s *File) rawErr(err error) error {
	var pe *newick.ParseError
	if s.raw != nil && errors.As(err, &pe) {
		moved := *pe
		moved.Pos += s.raw.off
		if moved.Line > 0 {
			moved.Line += s.raw.line - 1
		}
		err = &moved
	}
	return fmt.Errorf("collection: %s: %w", s.Path, err)
}

func (h *Head) rawErr(err error) error { return rawErr(h.Src, err) }

// rawErr is File.rawErr for any source that has it.
func rawErr(src Source, err error) error {
	if r, ok := src.(interface{ rawErr(error) error }); ok {
		return r.rawErr(err)
	}
	return err
}

// NextRaw implements RawSource for plain-Newick files (including gzipped
// ones). NEXUS inputs return ErrRawUnsupported; callers fall back to the
// parsed path.
func (s *File) NextRaw() (string, error) {
	if s.r == nil {
		if err := s.Reset(); err != nil {
			return "", err
		}
	}
	if s.raw == nil {
		return "", ErrRawUnsupported
	}
	stmt, err := s.raw.next()
	if err == io.EOF {
		if s.count < 0 {
			s.count = s.seen
		}
		return "", io.EOF
	}
	if err != nil {
		return "", fmt.Errorf("collection: %s: %w", s.Path, err)
	}
	s.seen++
	return stmt, nil
}

// NextRaw implements RawSource for Head when the wrapped source supports
// it, preserving the N-tree cap. As with File, use either Next or NextRaw
// within one pass, not both.
func (h *Head) NextRaw() (string, error) {
	if h.seen >= h.N {
		return "", io.EOF
	}
	rs, ok := h.Src.(RawSource)
	if !ok {
		return "", ErrRawUnsupported
	}
	stmt, err := rs.NextRaw()
	if err != nil {
		return "", err
	}
	h.seen++
	return stmt, nil
}

// rawScanner splits a Newick stream into per-tree statements at top-level
// semicolons, respecting quoted labels and (nested) bracket comments. It
// performs no parsing beyond that, so splitting is far cheaper than tree
// construction and the expensive work lands in parallel workers. It works
// a buffered window at a time: ReadSlice(';') hands it the bytes up to the
// next ';', the quote/comment state machine runs over that slice (skipped
// when the slice holds no quote or comment opener), and whole slices are
// copied out.
type rawScanner struct {
	br  *bufio.Reader
	buf []byte // the statement so far, when it spans several slices

	// Splitter state within the current statement.
	inQuote  bool
	depth    int  // comment nesting
	nonSpace bool // anything but whitespace and comments seen

	// off and line locate the statement last returned: its byte offset in
	// the stream and the 1-based line it starts on. end and endLine are
	// the same for the byte after it.
	off, line, end, endLine int
}

func newRawScanner(br *bufio.Reader) *rawScanner {
	return &rawScanner{br: br, line: 1, endLine: 1}
}

func (rs *rawScanner) next() (string, error) {
	rs.off, rs.line = rs.end, rs.endLine
	rs.buf = rs.buf[:0]
	rs.inQuote, rs.depth, rs.nonSpace = false, 0, false
	for {
		chunk, err := rs.br.ReadSlice(';')
		rs.end += len(chunk)
		rs.endLine += bytes.Count(chunk, newline)
		if len(chunk) > 0 && rs.scan(chunk) {
			if len(rs.buf) == 0 {
				return string(chunk), nil
			}
			rs.buf = append(rs.buf, chunk...)
			return string(rs.buf), nil
		}
		// The slice must be copied before the next read reuses the
		// buffer: it ended at a quoted or commented ';', at a full
		// buffer, or at the end of input.
		rs.buf = append(rs.buf, chunk...)
		switch {
		case err == nil || err == bufio.ErrBufferFull:
		case err != io.EOF:
			return "", err
		case rs.nonSpace:
			return "", fmt.Errorf("unterminated tree statement %q", clip(string(rs.buf)))
		case rs.depth > 0:
			return "", fmt.Errorf("unterminated comment %q", clip(string(rs.buf)))
		default:
			return "", io.EOF
		}
	}
}

var newline = []byte{'\n'}

// scan advances the splitter state over p, which holds no ';' before its
// last byte, and reports whether p ends the statement at a top-level ';'.
func (rs *rawScanner) scan(p []byte) bool {
	if !rs.inQuote && rs.depth == 0 &&
		bytes.IndexByte(p, '\'') < 0 && bytes.IndexByte(p, '[') < 0 {
		if !rs.nonSpace {
			rs.nonSpace = len(bytes.TrimLeft(bytes.TrimSuffix(p, semi), " \t\n\r")) > 0
		}
		return p[len(p)-1] == ';'
	}
	for _, b := range p {
		switch {
		case rs.inQuote:
			if b == '\'' {
				rs.inQuote = false // doubled quotes toggle twice, harmlessly
			}
		case rs.depth > 0:
			switch b {
			case '[':
				rs.depth++
			case ']':
				rs.depth--
			}
		case b == '\'':
			rs.inQuote = true
			rs.nonSpace = true
		case b == '[':
			rs.depth++
		case b == ';':
			return true
		case b != ' ' && b != '\t' && b != '\n' && b != '\r':
			rs.nonSpace = true
		}
	}
	return false
}

var semi = []byte{';'}

func clip(s string) string {
	s = strings.TrimSpace(s)
	if len(s) > 40 {
		return s[:40] + "…"
	}
	return s
}
