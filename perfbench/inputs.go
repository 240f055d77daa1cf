package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/day"
	"repro/internal/newick"
	"repro/internal/simphy"
	"repro/internal/taxa"
	"repro/internal/tree"
)

// inputVersion is bumped whenever generation changes, so a cached input
// set from an older benchmark is regenerated instead of reused.
const inputVersion = 3

// kind is what a workload runs: a batch call or HTTP serving.
type kind int

const (
	batchQR          kind = iota // Q = R through repro.AverageRFFiles
	batchQvR                     // distinct Q and R through repro.AverageRFFiles
	serveDistributed             // POST /v1/query against serve.Distributed
)

// workload describes one benchmark workload. Every input is a function of
// the workload and the seed; README.md says why each one exists.
type workload struct {
	Name string
	Kind kind
	Taxa int
	Refs int
	// Queries is the size of Q for batchQvR (each query is a reference
	// after NNI moves) and of the pool of distinct fresh gene trees that
	// serve requests draw from.
	Queries int
	NNI     int
	// Oracle is how many query trees are checked against Day's algorithm
	// over every reference.
	Oracle int

	// Serve traffic: a stream of Requests requests of TreesPerReq trees,
	// each slot repeating a tree sent earlier in the stream with
	// probability RepeatP and otherwise taking the next fresh pool tree.
	TreesPerReq int
	RepeatP     float64
	Requests    int
}

func (w workload) serve() bool { return w.Kind == serveDistributed }

var workloads = []workload{
	{Name: "qr-msc144", Kind: batchQR, Taxa: 144, Refs: 2000, Oracle: 5},
	{Name: "qvr-n2048", Kind: batchQvR, Taxa: 2048, Refs: 128, Queries: 64, NNI: 3, Oracle: 4},
	// A stream of 600 requests draws 2400 fresh trees on average (standard
	// deviation 35), far below the pool of 3000.
	{Name: "serve-sharded", Kind: serveDistributed, Taxa: 144, Refs: 2000, Queries: 3000, Oracle: 5,
		TreesPerReq: 8, RepeatP: 0.5, Requests: 600},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// oracleAnswer is one query tree's exact average RF, from Day's algorithm
// against every reference tree.
type oracleAnswer struct {
	Index  int     `json:"index"`
	AvgRF  float64 `json:"avg_rf"`
	Newick string  `json:"newick"`
}

// inputSet is a generated, cached input set: the files the program reads
// plus what the benchmark checks answers against.
type inputSet struct {
	Version int              `json:"version"`
	Seed    int64            `json:"seed"`
	Files   map[string]int64 `json:"files"` // name → bytes
	Queries int              `json:"queries"`
	Oracle  []oracleAnswer   `json:"oracle"`
	// Expected holds every pool tree's average RF (serve workloads),
	// computed by the batch path and checked against Oracle.
	Expected []float64 `json:"expected,omitempty"`

	dir string
}

func (s *inputSet) path(name string) string { return filepath.Join(s.dir, name) }

func (s *inputSet) refPath() string { return s.path("refs.nwk") }

// queryPath is the file a batch call reads as Q (R itself for Q = R) and
// the serve pool.
func (s *inputSet) queryPath() string {
	if _, ok := s.Files["queries.nwk"]; ok {
		return s.path("queries.nwk")
	}
	return s.refPath()
}

// msc returns the workload's seeded gene-tree generator. The species tree
// (a Yule tree with unit mean internal branch length) is the same for
// every seed, so seeds vary the gene trees but not the amount of
// discordance, which keeps the work per run comparable.
func (w workload) msc(seed int64) *simphy.MSCCollection {
	c := simphy.NewMSCCollection(taxa.Generate(w.Taxa), speciesSeed+int64(w.Taxa), 1.0)
	simphy.ScaleMeanInternal(c.Species, 1.0)
	c.Seed = seed*1000003 + int64(w.Taxa)
	return c
}

const speciesSeed = 29001

var writeOpts = newick.WriteOptions{BranchLengths: true, Precision: 6}

// loadInputs returns the cached input set for (workload, seed), generating
// it first when absent. Generation is part of no metric.
func loadInputs(work string, w workload, seed int64) (*inputSet, error) {
	dir := filepath.Join(work, "inputs", fmt.Sprintf("%s-seed%d", w.Name, seed))
	if s, err := readManifest(dir); err == nil && s.Version == inputVersion {
		return s, nil
	}
	start := time.Now()
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, err := generate(dir, w, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %s seed %d: %w", w.Name, seed, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: generated %s seed %d in %.1fs\n", w.Name, seed, time.Since(start).Seconds())
	if err := evictInputs(filepath.Dir(dir), keptInputSets); err != nil {
		return nil, err
	}
	return s, nil
}

// keptInputSets is how many generated input sets the cache keeps, so that
// many seeds do not fill the disk.
const keptInputSets = 8

// evictInputs removes all but the keep most recently generated complete
// input sets under dir.
func evictInputs(dir string, keep int) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type set struct {
		path string
		mod  time.Time
	}
	var sets []set
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		info, err := os.Stat(filepath.Join(path, "manifest.json"))
		if err != nil {
			continue // incomplete: regenerated when next used
		}
		sets = append(sets, set{path, info.ModTime()})
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].mod.After(sets[j].mod) })
	for _, st := range sets[min(keep, len(sets)):] {
		if err := os.RemoveAll(st.path); err != nil {
			return err
		}
	}
	return nil
}

func readManifest(dir string) (*inputSet, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var s inputSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, err
	}
	s.dir = dir
	return &s, nil
}

// generate writes the input files into dir and, last, the manifest that
// marks the set complete.
func generate(dir string, w workload, seed int64) (*inputSet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &inputSet{Version: inputVersion, Seed: seed, Files: map[string]int64{}, dir: dir}
	msc := w.msc(seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))

	refs := make([]*tree.Tree, w.Refs)
	for i := range refs {
		refs[i] = msc.Make(i)
	}
	if err := writeTrees(s, "refs.nwk", refs); err != nil {
		return nil, err
	}
	queries := refs
	switch w.Kind {
	case batchQvR:
		queries = make([]*tree.Tree, w.Queries)
		for i := range queries {
			queries[i] = simphy.PerturbNNI(refs[i%len(refs)], w.NNI, rng)
		}
	case serveDistributed:
		// Fresh gene trees from the same species tree, as posterior
		// samples of the same loci would be.
		queries = make([]*tree.Tree, w.Queries)
		for i := range queries {
			queries[i] = msc.Make(w.Refs + i)
		}
	}
	if w.Kind != batchQR {
		if err := writeTrees(s, "queries.nwk", queries); err != nil {
			return nil, err
		}
	}
	s.Queries = len(queries)

	idx := rng.Perm(len(queries))[:min(w.Oracle, len(queries))]
	sort.Ints(idx)
	sums, err := oracleSums(queries, idx, refs)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	for k, i := range idx {
		s.Oracle = append(s.Oracle, oracleAnswer{
			Index:  i,
			AvgRF:  float64(sums[k]) / float64(len(refs)),
			Newick: newick.String(queries[i], writeOpts),
		})
	}

	if w.serve() {
		// Expected serve answers come from the batch path, computed once
		// per input set and checked against the oracle sample.
		res, err := repro.AverageRFFiles(s.queryPath(), s.refPath(), repro.Config{})
		if err != nil {
			return nil, fmt.Errorf("expected answers: %w", err)
		}
		if bad := checkBatch(s, res); bad != 0 {
			return nil, fmt.Errorf("expected answers: %d disagree with the oracle", bad)
		}
		s.Expected = make([]float64, len(res))
		for i, r := range res {
			s.Expected[i] = r.AvgRF
		}
	}

	b, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, "manifest.json.tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "manifest.json")); err != nil {
		return nil, err
	}
	return s, nil
}

// oracleSums returns, for each queries[idx[k]], the sum of its Day RF
// distances to every reference, computed on runtime.NumCPU goroutines.
func oracleSums(queries []*tree.Tree, idx []int, refs []*tree.Tree) ([]int, error) {
	sums := make([]int, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobs {
				for _, ref := range refs {
					d, err := day.RF(queries[idx[k]], ref)
					if err != nil {
						errs[k] = err
						break
					}
					sums[k] += d
				}
			}
		}()
	}
	for k := range idx {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sums, nil
}

// writeTrees writes the trees to the named file and records its size.
func writeTrees(s *inputSet, name string, trees []*tree.Tree) error {
	f, err := os.Create(s.path(name))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	for _, t := range trees {
		if err := newick.Write(bw, t, writeOpts); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(s.path(name))
	if err != nil {
		return err
	}
	s.Files[name] = info.Size()
	return nil
}

// sameAnswer compares two average RF values. Averages of integer
// distances agree to rounding; 1e-9 relative is far below one RF unit
// over any reference collection size used here.
func sameAnswer(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}
