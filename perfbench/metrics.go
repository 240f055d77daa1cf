package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one reported metric. Span, when set, is the trace span
// whose durations the metric aggregates; the metric name is then the span
// name plus a unit suffix (_s, _ms_p50, _ms_p90).
type metricDef struct {
	Name string
	Unit string
	Span string
}

// endToEnd are the metrics of an untraced run (--trace 0). Every workload
// reports every one of them; README.md defines each per workload.
var endToEnd = []metricDef{
	{Name: "trees_per_s", Unit: "trees/s"},
	{Name: "cpu_ms_per_tree", Unit: "ms"},
	{Name: "p50_ms", Unit: "ms"},
	{Name: "p90_ms", Unit: "ms"},
	{Name: "peak_heap_mb", Unit: "MB"},
	{Name: "setup_s", Unit: "s"},
	{Name: "ok_ratio", Unit: "ratio"},
}

// perLayer are the metrics of a traced run (--trace 1). A metric a
// workload has no layer for is reported as 0 and named on stderr.
var perLayer = []metricDef{
	{Name: "repro.call_s", Unit: "s", Span: "repro.call"},
	{Name: "collection.taxa_scan_s", Unit: "s", Span: "collection.taxa_scan"},
	{Name: "collection.read_passes", Unit: "ratio"},
	{Name: "newick.parse_s", Unit: "s", Span: "newick.parse"},
	{Name: "bipart.extract_s", Unit: "s", Span: "bipart.extract"},
	{Name: "bipart.splits", Unit: "count"},
	{Name: "core.build_s", Unit: "s", Span: "core.build"},
	{Name: "core.query_s", Unit: "s", Span: "core.query"},
	{Name: "core.probe_s", Unit: "s", Span: "core.probe"},
	{Name: "core.cache_hit_ratio", Unit: "ratio"},
	{Name: "core.unique_bipartitions", Unit: "count"},
	{Name: "bfhtable.footprint_mb", Unit: "MB"},
	{Name: "bfhtable.lookups", Unit: "count"},
	{Name: "bfhtable.miss_ratio", Unit: "ratio"},
	{Name: "bfhsnap.save_s", Unit: "s", Span: "bfhsnap.save"},
	{Name: "bfhsnap.load_s", Unit: "s", Span: "bfhsnap.load"},
	{Name: "bfhsnap.mb", Unit: "MB"},
	{Name: "distrib.load_s", Unit: "s", Span: "distrib.load"},
	{Name: "distrib.rpcs_per_req", Unit: "count"},
	{Name: "distrib.rpc_bytes_per_req", Unit: "B"},
	{Name: "distrib.worker_ms_mean", Unit: "ms"},
	{Name: "distrib.wire_ms_mean", Unit: "ms"},
	{Name: "distrib.retries", Unit: "count"},
	{Name: "serve.client_ms_p50", Unit: "ms", Span: "serve.client"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Span: "serve.handler"},
	{Name: "serve.handler_ms_p90", Unit: "ms", Span: "serve.handler"},
	{Name: "serve.backend_ms_p50", Unit: "ms", Span: "serve.backend"},
	{Name: "serve.backend_ms_p90", Unit: "ms", Span: "serve.backend"},
	{Name: "serve.front_ms_p50", Unit: "ms"},
	{Name: "serve.client_wait_ms_p50", Unit: "ms"},
	{Name: "serve.shed", Unit: "count"},
	{Name: "runtime.alloc_mb_per_ktree", Unit: "MB"},
	{Name: "runtime.gc_cycles_per_ktree", Unit: "count"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio"},
	{Name: "host.steal_share", Unit: "ratio"},
	{Name: "bench.trace_overhead_pct", Unit: "%"},
	{Name: "bench.step_coverage", Unit: "ratio"},
}

// spanNames returns the set of span names the per-layer metrics aggregate.
func spanNames() map[string]bool {
	out := map[string]bool{}
	for _, m := range perLayer {
		if m.Span != "" {
			out[m.Span] = true
		}
	}
	return out
}

// values collects one run's metrics by name. Metrics a workload cannot
// measure are listed in notMeasured with the reason.
type values struct {
	v           map[string]float64
	notMeasured map[string]string
}

func newValues() *values {
	return &values{v: map[string]float64{}, notMeasured: map[string]string{}}
}

func (m *values) set(name string, v float64) { m.v[name] = v }

// skip marks every metric whose name starts with one of the prefixes as
// not measured on this workload.
func (m *values) skip(reason string, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.Name, p) {
				m.notMeasured[d.Name] = reason
			}
		}
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// render picks the declared metrics out of m. A declared metric the run
// did not set is an error unless it was marked not measured (then 0).
func (m *values) render(defs []metricDef) (map[string]metricOut, error) {
	out := make(map[string]metricOut, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m.v[d.Name]
		if !ok {
			if _, skipped := m.notMeasured[d.Name]; !skipped {
				missing = append(missing, d.Name)
			}
		}
		out[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// reportNotMeasured prints the not-measured metrics with their reasons.
func (m *values) reportNotMeasured() {
	names := make([]string, 0, len(m.notMeasured))
	for n := range m.notMeasured {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "perfbench: %s not measured (reported as 0): %s\n", n, m.notMeasured[n])
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
