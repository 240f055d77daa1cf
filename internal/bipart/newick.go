package bipart

import (
	"repro/internal/bitset"
	"repro/internal/newick"
)

// edge is one non-root node's parent edge, in postorder: its uncanonical
// leaf-set mask (nil for a leaf unless IncludeTrivial) and length.
type edge struct {
	mask      *bitset.Bits
	length    float64
	hasLength bool
}

// openNode is an internal node whose ')' is still unread.
type openNode struct {
	mask     *bitset.Bits
	children int
	second   int // edges index of the second child, -1 until it completes
}

// ExtractNewick returns the bipartitions of the tree in the Newick
// statement stmt: the same splits, in the same order, with the same
// errors as Extract(newick.Parse(stmt)), but without building the tree.
// One pass over the string (newick.Statement) sets each leaf's bit in its
// parent's mask and, as each internal node closes, ORs its mask into its
// parent's and keeps it as its edge's split; once the leaves — and so the
// anchor and coverage — are known, the edges are canonicalized and
// filtered in postorder.
func (e *Extractor) ExtractNewick(stmt string) ([]Bipartition, error) {
	n := e.Taxa.Len()
	e.recycle()
	seen := e.seenScratch(n)
	present, anchor := 0, -1
	var leafErr error
	rootChildren, rootSecond := 0, -1
	edges, open := e.edges[:0], e.open[:0]
	// release returns the masks still held to the pool.
	release := func() {
		for _, ed := range edges {
			if ed.mask != nil {
				e.putMask(ed.mask)
			}
		}
		for _, o := range open {
			e.putMask(o.mask)
		}
		e.edges, e.open = edges[:0], open[:0]
	}
	// child records a completed child of the innermost open node.
	child := func(ed edge) {
		edges = append(edges, ed)
		p := &open[len(open)-1]
		if p.children++; p.children == 2 {
			p.second = len(edges) - 1
		}
	}

	e.st.Reset(stmt)
walk:
	for {
		ev, err := e.st.Next()
		if err != nil {
			release()
			return nil, err
		}
		switch ev {
		case newick.EvOpen:
			open = append(open, openNode{mask: e.getMask(n), second: -1})
		case newick.EvLeaf:
			idx := -1
			if leafErr == nil {
				i, ok := e.Taxa.IndexBytes(e.st.Label())
				switch {
				case !ok:
					leafErr = unknownLeaf(string(e.st.Label()))
				case seen[i]:
					leafErr = duplicateLeaf(string(e.st.Label()))
				default:
					seen[i] = true
					present++
					if anchor == -1 || i < anchor {
						anchor = i
					}
					idx = i
				}
			}
			if len(open) == 0 {
				break // a one-leaf tree: no edges
			}
			ed := edge{length: e.st.Length(), hasLength: e.st.HasLength()}
			if idx >= 0 {
				open[len(open)-1].mask.Set(idx)
				if e.IncludeTrivial {
					ed.mask = e.getMask(n)
					ed.mask.Set(idx)
				}
			}
			child(ed)
		case newick.EvClose:
			o := open[len(open)-1]
			open = open[:len(open)-1]
			if len(open) == 0 {
				rootChildren, rootSecond = o.children, o.second
				e.putMask(o.mask)
				break
			}
			open[len(open)-1].mask.Or(o.mask)
			child(edge{mask: o.mask, length: e.st.Length(), hasLength: e.st.HasLength()})
		case newick.EvEnd:
			break walk
		}
	}
	if leafErr == nil {
		leafErr = e.checkCoverage(present, n)
	}
	if leafErr != nil {
		release()
		return nil, leafErr
	}

	var out []Bipartition
	if e.ReuseMasks {
		out = e.outBuf[:0]
	}
	for i, ed := range edges {
		switch {
		case ed.mask == nil:
			// A leaf edge without IncludeTrivial: always trivial.
		case i == rootSecond && rootChildren == 2:
			// The rooted-binary root's second edge repeats its first.
			e.putMask(ed.mask)
		default:
			out = e.emit(out, ed.mask, anchor, present, ed.length, ed.hasLength)
		}
	}
	if e.ReuseMasks {
		e.outBuf = out
	}
	e.edges, e.open = edges[:0], open[:0]
	return out, nil
}
