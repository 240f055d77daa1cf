package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/bipart"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/tree"
)

// batchCall runs one full repro.AverageRFFiles call (taxa scan, build and
// query, as a user's run does) and checks its answers.
func batchCall(in *inputSet) (time.Duration, []repro.Result, int, error) {
	start := time.Now()
	res, err := repro.AverageRFFiles(in.queryPath(), in.refPath(), repro.Config{})
	d := time.Since(start)
	if err != nil {
		return d, nil, in.Queries, err
	}
	return d, res, checkBatch(in, res), nil
}

// checkBatch counts answers that disagree with the oracle sample, plus
// every missing or misplaced result.
func checkBatch(in *inputSet, res []repro.Result) int {
	if len(res) != in.Queries {
		return in.Queries
	}
	bad := 0
	for i, r := range res {
		if r.Index != i {
			bad++
		}
	}
	for _, o := range in.Oracle {
		if !sameAnswer(res[o.Index].AvgRF, o.AvgRF) {
			fmt.Fprintf(os.Stderr, "perfbench: query %d: average RF %v, oracle %v\n", o.Index, res[o.Index].AvgRF, o.AvgRF)
			bad++
		}
	}
	return bad
}

// Within each cycle of an untraced batch run, requestTime is how long
// requests are timed on the freshly built hash.
const requestTime = 400 * time.Millisecond

// runBatch is the untraced batch run. It repeats a cycle until the cycles
// have taken the run's seconds: a timed repro.BuildHashFile over R (the
// set-up), requests against that hash with one caller, and one full
// AverageRFFiles call with its CPU time and peak live heap. A request is
// one Hash.AverageRFNewick call over the oracle-checked query trees, the
// in-process counterpart of a serve request. Each step starts from a
// collected heap, and every timing is a median over the cycles or a
// percentile over all requests, so all of them spread over the whole run.
func runBatch(in *inputSet, seconds float64, m *values) (attempted, failed int, err error) {
	trees := make([]string, len(in.Oracle))
	for k, o := range in.Oracle {
		trees[k] = o.Newick
	}
	var setups, calls, cpus, peaks, lat, p50s, p90s []float64
	start := time.Now()
	for len(calls) < 3 || time.Since(start).Seconds() < seconds {
		runtime.GC()
		t0 := time.Now()
		h, err := repro.BuildHashFile(in.refPath(), repro.Config{})
		if err != nil {
			return attempted, failed, err
		}
		setups = append(setups, time.Since(t0).Seconds())

		runtime.GC()
		st := closedLoop(context.Background(), 1, requestTime, 1<<30, func(context.Context, int) outcome {
			res, err := h.AverageRFNewick(trees)
			if err != nil || len(res) != len(trees) {
				return outWrong
			}
			for k, r := range res {
				if r.Index != k || !sameAnswer(r.AvgRF, in.Oracle[k].AvgRF) {
					return outWrong
				}
			}
			return outOK
		})
		attempted += len(trees) * (st.OK + st.Failed)
		failed += len(trees) * st.Failed
		lat = append(lat, st.Latencies...)
		p50s = append(p50s, quantile(st.Latencies, 0.5))
		p90s = append(p90s, quantile(st.Latencies, 0.9))
		h = nil

		runtime.GC()
		heap := startHeapSampler()
		c0 := cpuTime()
		d, _, bad, err := batchCall(in)
		cpu := cpuTime() - c0
		peaks = append(peaks, heap.finish())
		attempted += in.Queries
		failed += bad
		if err != nil {
			return attempted, failed, err
		}
		calls = append(calls, d.Seconds())
		cpus = append(cpus, cpu.Seconds()*1e3/float64(in.Queries))
	}
	m.set("trees_per_s", float64(in.Queries)/median(calls))
	m.set("cpu_ms_per_tree", median(cpus))
	m.set("p50_ms", quantile(lat, 0.5))
	m.set("p90_ms", quantile(lat, 0.9))
	m.set("peak_heap_mb", median(peaks))
	m.set("setup_s", median(setups))
	sb, _ := json.Marshal(map[string][]float64{"calls": calls, "cpus": cpus, "setups": setups, "p50s": p50s, "p90s": p90s})
	fmt.Fprintf(os.Stderr, "perfbench: samples %s\n", sb)
	fmt.Fprintf(os.Stderr, "perfbench: %d cycles; calls of %d query trees (s): %s\n", len(calls), in.Queries, joinFloats(calls, 3))
	fmt.Fprintf(os.Stderr, "perfbench: set-ups (s): %s\n", joinFloats(setups, 3))
	fmt.Fprintf(os.Stderr, "perfbench: requests of %d trees: %d samples, p99 %.3f ms\n", len(trees), len(lat), quantile(lat, 0.99))
	return attempted, failed, nil
}

// tracedPairs is how many untraced calls and traced, decomposed calls a
// traced batch run alternates; the step metrics are medians over them.
const tracedPairs = 3

// runBatchTraced is the traced batch run. It alternates untraced calls
// (the reference for tracing overhead and step coverage; the first is the
// window of the program's counters) with the same call decomposed into
// its blocking steps under spans, then makes separate component passes
// over the same inputs.
func runBatchTraced(in *inputSet, tr *tracer, m *values) (attempted, failed int, err error) {
	var untraced []float64
	var h *core.FreqHash
	for pair := 0; pair < tracedPairs; pair++ {
		runtime.GC()
		rchar0, err := readChar()
		if err != nil {
			return attempted, failed, err
		}
		c0, rt := readCounters(), startRuntimeWindow()
		d, want, bad, err := batchCall(in)
		attempted += in.Queries
		failed += bad
		if err != nil {
			return attempted, failed, err
		}
		untraced = append(untraced, d.Seconds())
		if pair == 0 {
			rt.set(m, in.Queries)
			c1 := readCounters()
			rchar1, err := readChar()
			if err != nil {
				return attempted, failed, err
			}
			read := in.Files["refs.nwk"] + in.Files["queries.nwk"] // no queries.nwk when Q = R
			m.set("collection.read_passes", float64(rchar1-rchar0)/float64(read))
			hits := delta(c0, c1, "bfhrf_cache_hit_total")
			m.set("core.cache_hit_ratio", ratio(hits, hits+delta(c0, c1, "bfhrf_cache_miss_total")))
			lookups := delta(c0, c1, "bfhrf_hash_lookups_total")
			m.set("bfhtable.lookups", lookups)
			m.set("bfhtable.miss_ratio", ratio(delta(c0, c1, "bfhrf_hash_misses_total"), lookups))
		}

		runtime.GC()
		var got []core.Result
		h, got, err = decomposedCall(in, tr)
		attempted += in.Queries
		if err != nil {
			return attempted, failed + in.Queries, err
		}
		for i := range got {
			if got[i].Index != want[i].Index || got[i].AvgRF != want[i].AvgRF {
				failed++
			}
		}
	}
	steps := map[string][]float64{}
	for _, name := range []string{"repro.call", "collection.taxa_scan", "core.build", "core.query"} {
		steps[name] = secs(tr.durations(name))
		m.set(name+"_s", median(steps[name]))
	}
	var covered []float64
	for i := range untraced {
		covered = append(covered, steps["collection.taxa_scan"][i]+steps["core.build"][i]+steps["core.query"][i])
	}
	call := median(untraced)
	m.set("bench.trace_overhead_pct", (median(steps["repro.call"])-call)/call*100)
	coverage := median(covered) / call
	m.set("bench.step_coverage", coverage)
	if err := checkCoverage(coverage); err != nil {
		return attempted, failed, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: hash backend %v\n", h.Backend())
	m.set("core.unique_bipartitions", float64(h.UniqueBipartitions()))
	m.set("bfhtable.footprint_mb", float64(h.FootprintBytes())/1e6)

	if err := parsePass(in.refPath(), tr); err != nil {
		return attempted, failed, err
	}
	m.set("newick.parse_s", tr.total("newick.parse"))
	splits, err := extractProbePass(in.queryPath(), h, tr)
	if err != nil {
		return attempted, failed, err
	}
	m.set("bipart.splits", float64(splits))
	m.set("bipart.extract_s", tr.total("bipart.extract"))
	m.set("core.probe_s", tr.total("core.probe"))
	return attempted, failed, nil
}

// The blocking-step spans of a traced call must account for the untraced
// call's wall time within these bounds: outside the wide one a step is
// missing or counted twice, outside the narrow one the run warns.
const (
	coverageWarn = 0.25
	coverageFail = 0.5
)

func checkCoverage(c float64) error {
	switch {
	case c < 1-coverageFail || c > 1+coverageFail:
		return fmt.Errorf("blocking-step spans cover %.2f of the untraced call: a step is missing or counted twice", c)
	case c < 1-coverageWarn || c > 1+coverageWarn:
		fmt.Fprintf(os.Stderr, "perfbench: warning: blocking-step spans cover %.2f of the untraced call (expected %.2f-%.2f)\n",
			c, 1-coverageWarn, 1+coverageWarn)
	}
	return nil
}

// decomposedCall performs what repro.AverageRFFiles does with a default
// Config, one blocking step per span, in the same order: scan R's taxa,
// build the hash, query Q through the default result cache.
func decomposedCall(in *inputSet, tr *tracer) (*core.FreqHash, []core.Result, error) {
	root := tr.root("repro.call")
	defer root.end()
	q, err := collection.OpenFileOpts(in.queryPath(), collection.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer q.Close()
	r, err := collection.OpenFileOpts(in.refPath(), collection.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	sp := root.child("collection.taxa_scan")
	ts, err := collection.ScanTaxa(r)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = root.child("core.build")
	h, err := core.Build(r, ts, core.BuildOptions{RequireComplete: true, Backend: core.BackendAuto})
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = root.child("core.query")
	res, err := h.AverageRF(q, core.QueryOptions{
		RequireComplete: true,
		Variant:         core.Plain,
		Cache:           core.NewQueryCache(0, 0),
	})
	sp.end()
	return h, res, err
}

// parsePass reads every tree of path with one newick.Reader pass,
// discarding the trees.
func parsePass(path string, tr *tracer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := newick.NewReader(bufio.NewReaderSize(f, 1<<20))
	sp := tr.root("newick.parse")
	for err == nil {
		_, err = rd.Read()
	}
	sp.end()
	if err != io.EOF {
		return err
	}
	return nil
}

// forEachBatch parses path in batches of up to n trees and hands each
// batch to fn.
func forEachBatch(path string, n int, fn func([]*tree.Tree) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd := newick.NewReader(bufio.NewReaderSize(f, 1<<20))
	for {
		var batch []*tree.Tree
		var rerr error
		for len(batch) < n {
			t, err := rd.Read()
			if err != nil {
				rerr = err
				break
			}
			batch = append(batch, t)
		}
		if rerr != nil && rerr != io.EOF {
			return rerr
		}
		if len(batch) > 0 {
			if err := fn(batch); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
	}
}

// extractProbePass times Extractor.Extract over the already-parsed query
// trees, and Prober.AverageRFOfSplits (no result cache) over their
// pre-extracted splits. Trees are parsed in batches sized to keep the
// resident splits near 64 MB; parsing is outside the spans. It returns the
// number of splits extracted.
func extractProbePass(path string, h *core.FreqHash, tr *tracer) (int, error) {
	ts := h.Taxa()
	n := ts.Len()
	per := n * (n/8 + 64)
	batch := max(1, min(512, (64<<20)/per))
	splits := 0
	fast := &bipart.Extractor{Taxa: ts, RequireComplete: true, ReuseMasks: true}
	keep := &bipart.Extractor{Taxa: ts, RequireComplete: true}
	prober := h.NewProber()
	err := forEachBatch(path, batch, func(trees []*tree.Tree) error {
		sp := tr.root("bipart.extract")
		for _, t := range trees {
			bs, err := fast.Extract(t)
			if err != nil {
				sp.end()
				return err
			}
			splits += len(bs)
		}
		sp.end()
		sets := make([][]bipart.Bipartition, len(trees))
		for i, t := range trees {
			bs, err := keep.Extract(t)
			if err != nil {
				return err
			}
			sets[i] = bs
		}
		sp = tr.root("core.probe")
		for _, bs := range sets {
			if _, err := prober.AverageRFOfSplits(bs, core.Plain); err != nil {
				sp.end()
				return err
			}
		}
		sp.end()
		return nil
	})
	return splits, err
}
