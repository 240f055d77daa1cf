package collection

import (
	"fmt"
	"io"

	"repro/internal/newick"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// ScanTaxa streams every source once and returns the union of all leaf
// names as a lexicographically ordered catalogue. Sources are reset before
// and after scanning.
func ScanTaxa(sources ...Source) (*taxa.Set, error) {
	seen := make(map[string]bool)
	var names []string
	err := eachLeafName(sources, func(name []byte) {
		if !seen[string(name)] {
			n := string(name)
			seen[n] = true
			names = append(names, n)
		}
	}, func() {})
	if err != nil {
		return nil, err
	}
	return taxa.NewSet(names)
}

// ScanCommonTaxa streams every source once and returns the intersection of
// the leaf-name sets of all trees across all sources — the catalogue used
// by intersection-reduction variable-taxa RF.
func ScanCommonTaxa(sources ...Source) (*taxa.Set, error) {
	// The first tree's names are the candidates; last[i] is the number of
	// the latest tree in an unbroken run from the first that holds
	// candidate i, so the common names are those with last == trees.
	var names []string
	slot := make(map[string]int)
	var last []int
	trees := 1
	err := eachLeafName(sources, func(name []byte) {
		i, ok := slot[string(name)]
		switch {
		case ok && last[i] == trees-1:
			last[i] = trees
		case !ok && trees == 1:
			n := string(name)
			slot[n] = len(names)
			names = append(names, n)
			last = append(last, 1)
		}
	}, func() { trees++ })
	if err != nil {
		return nil, err
	}
	common := names[:0]
	for i, n := range names {
		if last[i] == trees-1 {
			common = append(common, n)
		}
	}
	return taxa.NewSet(common)
}

// eachLeafName streams every source once, resetting it before and after,
// and calls leaf with each leaf name of each tree, then endTree after the
// tree. A plain-Newick file is walked statement by statement with
// newick.Statement, which checks the grammar but builds no tree; its
// errors read as the parsed walk's would. name is valid only during the
// call.
func eachLeafName(sources []Source, leaf func(name []byte), endTree func()) error {
	var st newick.Statement
	var buf []byte
	for _, src := range sources {
		if err := src.Reset(); err != nil {
			return err
		}
		if rs, ok := src.(RawSource); ok && rs.RawActive() {
			for {
				stmt, err := rs.NextRaw()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				if err := st.ScanLeafNames(stmt, leaf); err != nil {
					return rawErr(rs, err)
				}
				endTree()
			}
		} else {
			for {
				t, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
				for _, name := range t.LeafNames() {
					if name == "" {
						return fmt.Errorf("collection: tree with unnamed leaf")
					}
					buf = append(buf[:0], name...)
					leaf(buf)
				}
				endTree()
			}
		}
		if err := src.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// Map wraps src, applying f to every tree as it streams. Reset passes
// through to the underlying source.
type Map struct {
	Src Source
	F   func(*tree.Tree) (*tree.Tree, error)
}

// Next implements Source.
func (m *Map) Next() (*tree.Tree, error) {
	t, err := m.Src.Next()
	if err != nil {
		return nil, err
	}
	return m.F(t)
}

// Reset implements Source.
func (m *Map) Reset() error { return m.Src.Reset() }

// Count implements Counter when the underlying source does.
func (m *Map) Count() int {
	if c, ok := m.Src.(Counter); ok {
		return c.Count()
	}
	return -1
}

// Restricted wraps src so every tree is restricted to the given catalogue
// (intersection reduction for variable-taxa RF).
func Restricted(src Source, ts *taxa.Set) Source {
	return &Map{Src: src, F: func(t *tree.Tree) (*tree.Tree, error) {
		return tree.Restrict(t, ts.Contains)
	}}
}
