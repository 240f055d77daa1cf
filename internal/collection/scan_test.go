package collection

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/newick"
	"repro/internal/taxa"
)

// parsedFile opens path on the tree-building path: a limit too large to
// bind disables the raw scanner without changing what is accepted.
func parsedFile(t *testing.T, path string) *File {
	t.Helper()
	f, err := OpenFileOpts(path, Options{Limits: newick.Limits{MaxTaxa: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if f.RawActive() {
		t.Fatal("a file with ingest options must not be raw")
	}
	return f
}

func rawFile(t *testing.T, path string) *File {
	t.Helper()
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if !f.RawActive() {
		t.Fatal("a plain Newick file must be raw")
	}
	return f
}

// TestScanRawMatchesTrees: the label-only walk of a plain Newick file
// finds the same catalogues as a walk over the parsed trees, the same
// file read through the tree parser, and a Head over the file.
func TestScanRawMatchesTrees(t *testing.T) {
	for i, content := range []string{
		"((A,B),(C,D));\n((A,C),(B,E));\n(A,(B,(C,(D,F))));\n",
		"(('Homo sapiens':0.1[&&NHX:S=hs],Pan_troglodytes:0.2):0.3,'it''s':1,(gorilla[c[d]],A,B));\n" +
			"[a comment; with semicolons]\n(('it''s',Homo_sapiens),('Pan troglodytes',A),gorilla);\n",
		"(A,B,C);\n\n\n(B,C,D);\r\n(C,D,A)root:0;\n",
	} {
		path := writeTemp(t, fmt.Sprintf("good%d.nwk", i), content)
		trees, err := ReadAll(parsedFile(t, path))
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]Source{
			"raw":    rawFile(t, path),
			"parsed": parsedFile(t, path),
			"trees":  FromTrees(trees),
			"head":   &Head{Src: rawFile(t, path), N: len(trees)},
		}
		var union, common *taxa.Set
		for name, src := range sources {
			u, err := ScanTaxa(src)
			if err != nil {
				t.Fatalf("content %d %s: ScanTaxa: %v", i, name, err)
			}
			c, err := ScanCommonTaxa(src)
			if err != nil {
				t.Fatalf("content %d %s: ScanCommonTaxa: %v", i, name, err)
			}
			if union == nil {
				union, common = u, c
				continue
			}
			if !u.Equal(union) || !c.Equal(common) {
				t.Errorf("content %d %s: union %v common %v, want %v and %v", i, name, u, c, union, common)
			}
		}
		if common.Len() == 0 || common.Len() >= union.Len() {
			t.Errorf("content %d: common %v of union %v is not a proper non-empty subset", i, common, union)
		}
	}
}

// TestScanRawErrorsMatchTrees: on malformed input the label-only walk
// fails exactly as the tree-building walk does — same message, offset
// and line, and the same from ScanTaxa and ScanCommonTaxa. Input that
// ends inside a statement fails on both walks, with the splitter's own
// message on the raw one.
func TestScanRawErrorsMatchTrees(t *testing.T) {
	const good = "((A,B),(C,D));\n\n((A,C),\n (B,D));\n"
	for i, tc := range []struct {
		bad      string
		sameText bool
	}{
		{"((A,B),(C D));\n", true},
		{"((t1,t2),(t3 0.77,t4));\n", true},
		{"(A,B)(C,D);\n", true},
		{"(A,B:x_1);\n", true},
		{"(A,'',C);\n", true},
		{"(A,B]);\n", true},
		{"  ;\n", true},
		{"((A,B),(C,D));(A,B\n,C)x y;\n", true},
		{"((A,B),(C,D));\n[unterminated", false},
		{"((A,B),(C", false},
		{"((A,B),('C", false},
	} {
		path := writeTemp(t, fmt.Sprintf("bad%d.nwk", i), good+tc.bad)
		var errs []error
		for _, src := range []Source{parsedFile(t, path), rawFile(t, path), &Head{Src: rawFile(t, path), N: 10}} {
			_, uerr := ScanTaxa(src)
			_, cerr := ScanCommonTaxa(src)
			if uerr == nil || cerr == nil || uerr.Error() != cerr.Error() {
				t.Fatalf("case %d: ScanTaxa %v, ScanCommonTaxa %v: want one error", i, uerr, cerr)
			}
			errs = append(errs, uerr)
		}
		if tc.sameText && (errs[1].Error() != errs[0].Error() || errs[2].Error() != errs[0].Error()) {
			t.Errorf("case %d: raw %q, head %q, want the parsed walk's %q", i, errs[1], errs[2], errs[0])
		}
	}
}

// TestNextRawSpansBuffers: statements longer than the read buffer, and
// quoted or commented semicolons that straddle its boundaries, split
// exactly where the parser ends each tree.
func TestNextRawSpansBuffers(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&b, "(A,(B,'x;%s'),C[c%s;[%s;]]);", strings.Repeat("y", i*97), strings.Repeat(";", i*31), strings.Repeat("z", i*53))
		b.WriteString(strings.Repeat("\n", i%3))
		fmt.Fprintf(&b, "(A,B,(C,D));%s", strings.Repeat(" ", i*7))
	}
	content := b.String()
	want, err := newick.NewReader(strings.NewReader(content)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	src := rawFile(t, writeTemp(t, "long.nwk", content))
	var got []string
	for {
		stmt, err := src.NextRaw()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, stmt)
	}
	if len(got) != len(want) {
		t.Fatalf("%d statements, want %d", len(got), len(want))
	}
	if joined := strings.Join(got, ""); joined != strings.TrimRight(content, " ") {
		t.Fatal("statements do not tile the input")
	}
	for i, stmt := range got {
		tr, err := newick.Parse(stmt)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if newick.String(tr, newick.DefaultWriteOptions()) != newick.String(want[i], newick.DefaultWriteOptions()) {
			t.Fatalf("statement %d parses to a different tree", i)
		}
	}
}
