package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/collection"
	"repro/internal/faultinject"
	"repro/internal/newick"
	"repro/internal/tree"
)

// writeCollection materializes trees to a Newick file and opens it.
func writeCollection(t *testing.T, trees []*tree.Tree) *collection.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trees.nwk")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		if err := newick.Write(f, tr, newick.DefaultWriteOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// TestRawPathMatchesParsedPath: building/querying from a file (raw
// parallel-parse path) must equal the in-memory (pre-parsed) path exactly.
func TestRawPathMatchesParsedPath(t *testing.T) {
	trees, ts := randomCollection(303, 15, 80)
	fileSrc := writeCollection(t, trees)
	memSrc := collection.FromTrees(trees)

	hFile, err := Build(fileSrc, ts, BuildOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	hMem, err := Build(memSrc, ts, BuildOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if hFile.NumTrees() != hMem.NumTrees() {
		t.Fatalf("r: %d vs %d", hFile.NumTrees(), hMem.NumTrees())
	}
	if hFile.UniqueBipartitions() != hMem.UniqueBipartitions() {
		t.Fatalf("unique: %d vs %d", hFile.UniqueBipartitions(), hMem.UniqueBipartitions())
	}
	if hFile.TotalBipartitions() != hMem.TotalBipartitions() {
		t.Fatalf("sum: %d vs %d", hFile.TotalBipartitions(), hMem.TotalBipartitions())
	}

	resFile, err := hFile.AverageRF(fileSrc, QueryOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	resMem, err := hMem.AverageRF(memSrc, QueryOptions{RequireComplete: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resFile) != len(resMem) {
		t.Fatalf("results: %d vs %d", len(resFile), len(resMem))
	}
	for i := range resFile {
		if resFile[i].AvgRF != resMem[i].AvgRF {
			t.Errorf("query %d: raw %v vs parsed %v", i, resFile[i].AvgRF, resMem[i].AvgRF)
		}
	}
}

func TestRawPathErrorsPropagate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.nwk")
	if err := os.WriteFile(path, []byte("((A,B),(C,D));\n(A,;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := BuildDefault(src, abcd); err == nil {
		t.Error("malformed tree in the raw path should fail the build")
	}
}

func TestRawPathQueryErrorsPropagate(t *testing.T) {
	trees, ts := randomCollection(5, 8, 6)
	h := buildHash(t, trees, ts)
	path := filepath.Join(t.TempDir(), "q.nwk")
	if err := os.WriteFile(path, []byte("((A,B),(C,D));\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := collection.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := h.AverageRF(src, QueryOptions{RequireComplete: true}); err == nil {
		t.Error("wrong-taxa query in the raw path should fail")
	}
}

// TestRawPathFaultPointParity: on the raw path, a parse.tree fault plan
// fires once per statement, as newick.Parse did per tree, so
// "parse.tree:error@N" fails a Build or an AverageRF on the N-th tree —
// the contract the crash-at-tree worker tests depend on.
func TestRawPathFaultPointParity(t *testing.T) {
	defer faultinject.Disarm()
	trees, ts := randomCollection(11, 10, 6)
	src := writeCollection(t, trees)
	h := buildHash(t, trees, ts)
	bo := BuildOptions{RequireComplete: true, Workers: 1}
	qo := QueryOptions{RequireComplete: true, Workers: 1}

	// A plan that never fires counts one hit per tree.
	faultinject.Arm(faultinject.Plan{Point: faultinject.PointParseTree, Kind: faultinject.KindError, Hit: 1000})
	if _, err := Build(src, ts, bo); err != nil {
		t.Fatal(err)
	}
	if n := faultinject.HitCount(faultinject.PointParseTree); n != int64(len(trees)) {
		t.Fatalf("Build parse.tree hits = %d, want %d", n, len(trees))
	}
	faultinject.Arm(faultinject.Plan{Point: faultinject.PointParseTree, Kind: faultinject.KindError, Hit: 1000})
	if _, err := h.AverageRF(src, qo); err != nil {
		t.Fatal(err)
	}
	if n := faultinject.HitCount(faultinject.PointParseTree); n != int64(len(trees)) {
		t.Fatalf("AverageRF parse.tree hits = %d, want %d", n, len(trees))
	}

	for _, n := range []int{1, 4, len(trees)} {
		spec := fmt.Sprintf("parse.tree:error@%d", n)
		if err := faultinject.ArmSpec(spec); err != nil {
			t.Fatal(err)
		}
		_, err := Build(src, ts, bo)
		var pe *newick.ParseError
		if !errors.As(err, &pe) || !strings.Contains(err.Error(), "injected") {
			t.Errorf("%s: Build error = %v, want an injected *newick.ParseError", spec, err)
		}
		if err := faultinject.ArmSpec(spec); err != nil {
			t.Fatal(err)
		}
		_, err = h.AverageRF(src, qo)
		want := fmt.Sprintf("core: query tree %d: ", n-1)
		if !errors.As(err, &pe) || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: AverageRF error = %v, want a *newick.ParseError prefixed %q", spec, err, want)
		}
	}
	// One past the last tree never fires.
	if err := faultinject.ArmSpec(fmt.Sprintf("parse.tree:error@%d", len(trees)+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(src, ts, bo); err != nil {
		t.Errorf("plan past the last tree failed the build: %v", err)
	}
}
