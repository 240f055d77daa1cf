package bipart

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/newick"
	"repro/internal/taxa"
)

// FuzzExtractNewick is the differential check of the one-pass statement
// path against the tree path it replaces: for every input, ExtractNewick
// must return exactly what Extract(newick.Parse(input)) returns — the same
// bipartitions (mask, Hash, Length bits, HasLength, order) or an error
// with the same message — under every extractor setting, and
// Statement.ScanLeafNames must report tree.LeafNames or Parse's error.
// Seeded with newick's FuzzParse seeds and stored corpus plus pinned
// regressions; ci.sh runs a 10-second smoke.
func FuzzExtractNewick(f *testing.F) {
	for _, seed := range []string{
		// newick.FuzzParse's seeds.
		"(a,b);",
		"((a:1,b:2):0.5,c:3);",
		"(a,(b,(c,(d,e))));",
		"('quoted label',b_c)root;",
		"((A,B)90:0.1,(C,D)75:0.2);",
		"(a[comment],b[nested[deep]]);",
		"(,,);",
		"(a:1e-5,b:1E5,c:-0.5);",
		";",
		"(a,b)(c,d);",
		"((((((((((a,b))))))))));",
		"(a\n ,\tb) ;",
		// A leaf label may be followed only by ":length".
		"(a b,c);",
		"(t2 0.77,c);",
		// Quoting, underscores, nested and NHX comments, padded lengths.
		"(('Homo sapiens':0.1[&&NHX:S=human],Pan_troglodytes:0.2)[&R]:0.3,'it''s':1.5,gorilla[c[d]]:_2_,(x,y)'':'4');",
		"((a,b)x y,c);",
		"((a,b),(c,d));\n[trailing [comment]]\n",
		"((a,b),(c,d)); (e,f);",
		"((a,b),(c,d));x",
		"((a,b),(a,c));",
		"(a:1_5,b);",
		"(a,b]);",
		"('',b,c);",
		"((a,b):'x',c);",
		"(a,b);[unterminated",
		"(a,'b",
		"\n\n  ",
	} {
		f.Add(seed)
	}
	corpus, _ := filepath.Glob(filepath.Join("..", "newick", "testdata", "fuzz", "FuzzParse", "*"))
	for _, path := range corpus {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "string("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<12 {
			return // extraction is quadratic in the leaves; bound its cost
		}
		parsed, perr := newick.Parse(input)
		var st newick.Statement
		var scanned []string
		serr := st.ScanLeafNames(input, func(name []byte) { scanned = append(scanned, string(name)) })
		sameErr(t, "ScanLeafNames", serr, perr)
		if perr == nil && strings.Join(scanned, "\x00") != strings.Join(parsed.LeafNames(), "\x00") {
			t.Fatalf("ScanLeafNames(%q) = %q, LeafNames = %q", input, scanned, parsed.LeafNames())
		}

		// Catalogues: the tree's own names, one more (incomplete
		// coverage), one fewer (an unknown leaf).
		names := []string{"a", "b", "c", "d"}
		if perr == nil {
			names = distinct(parsed.LeafNames())
		}
		cats := []*taxa.Set{catalogue(names), catalogue(append(names[:len(names):len(names)], "\x00extra"))}
		if len(names) > 1 {
			cats = append(cats, catalogue(names[:len(names)-1]))
		}
		evenSize := func(b Bipartition) bool { return b.Size()%2 == 0 }
		for _, ts := range cats {
			for mode := 0; mode < 16; mode++ {
				cfg := Extractor{
					Taxa:            ts,
					RequireComplete: mode&1 != 0,
					IncludeTrivial:  mode&2 != 0,
					ReuseMasks:      mode&4 != 0,
				}
				if mode&8 != 0 {
					cfg.Filter = evenSize
				}
				want, werr := []Bipartition(nil), perr
				if perr == nil {
					ref := cfg
					want, werr = ref.Extract(parsed)
				}
				// Twice on one extractor, so the second call runs on
				// recycled masks and scratch.
				ex := cfg
				for rep := 0; rep < 2; rep++ {
					got, gerr := ex.ExtractNewick(input)
					sameErr(t, "ExtractNewick", gerr, werr)
					if gerr == nil {
						sameSplits(t, input, mode, got, want)
					}
				}
			}
		}
	})
}

func catalogue(names []string) *taxa.Set {
	ts, err := taxa.NewSet(distinct(names))
	if err != nil {
		panic(err)
	}
	return ts
}

func distinct(names []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// sameErr requires got and want to be both nil or the same error: both
// *newick.ParseError (or both not) with the same message.
func sameErr(t *testing.T, what string, got, want error) {
	t.Helper()
	var gp, wp *newick.ParseError
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s error = %v, want %v", what, got, want)
	case got == nil:
	case errors.As(got, &gp) != errors.As(want, &wp) || got.Error() != want.Error():
		t.Fatalf("%s error = %#v (%v), want %#v (%v)", what, got, got, want, want)
	}
}

func sameSplits(t *testing.T, input string, mode int, got, want []Bipartition) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q mode %d: %d splits, want %d", input, mode, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Mask().Equal(w.Mask()) || g.Hash() != w.Hash() ||
			math.Float64bits(g.Length) != math.Float64bits(w.Length) || g.HasLength != w.HasLength {
			t.Fatalf("%q mode %d split %d: %v len %v/%v, want %v len %v/%v",
				input, mode, i, g, g.Length, g.HasLength, w, w.Length, w.HasLength)
		}
	}
}
