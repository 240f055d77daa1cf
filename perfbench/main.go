// Command perfbench is the repository benchmark. One run measures one
// workload on inputs generated from a seed and prints, as its last line of
// standard output, a JSON object with the run's correctness, operation
// counts and metrics: the end-to-end metrics with tracing off, the
// per-layer metrics of a separate traced run with tracing on.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload qr-msc144 --seed 1 --seconds 32 --trace 0
//	bash perfbench/run.sh --workload serve-sharded --seed 1 --seconds 32 --trace 1
//	.bench_build/perfbench -compare old.json new.json
//
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	work     string
	commit   string
	tracevet string
	// decorate, when set, wraps the served backend (tests install a
	// deliberately wrong one to trip the correctness gate).
	decorate func(serve.Backend) serve.Backend
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceN int
	fs.StringVar(&cfg.workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root (holds BENCHMARK.json)")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for inputs, result sets and traces")
	fs.StringVar(&cfg.commit, "commit", "none", "commit of the measured code, for the host block")
	fs.StringVar(&cfg.tracevet, "tracevet", "", "cmd/tracevet binary that validates the written trace")
	compare := fs.Bool("compare", false, "compare two result-set files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two result-set files")
			return 2
		}
		if err := compareResults(os.Stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 3
		}
		return 0
	}
	if traceN != 0 && traceN != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = traceN == 1
	res, err := execute(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed or were answered wrongly\n", res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// execute runs one workload and returns its result line. An error means
// no result can be reported at all.
func execute(ctx context.Context, cfg config) (*result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := checkDeclared(filepath.Join(cfg.root, "BENCHMARK.json")); err != nil {
		return nil, err
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	// The program's own logs (distrib load and restore lines) would drown
	// the benchmark's report; keep warnings and errors.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	in, err := loadInputs(cfg.work, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(cfg.seed)
	}
	m := newValues()
	var attempted, failed int
	steal := readSteal()
	switch {
	case w.serve() && cfg.trace:
		attempted, failed, err = runServeTraced(ctx, cfg, w, in, tr, tmp, m)
	case w.serve():
		attempted, failed, err = runServe(ctx, cfg, w, in, tmp, m)
	case cfg.trace:
		m.skip("batch workloads have no HTTP layer", "serve.")
		m.skip("batch workloads run on one node", "distrib.", "bfhsnap.")
		attempted, failed, err = runBatchTraced(in, tr, m)
	default:
		attempted, failed, err = runBatch(in, cfg.seconds, m)
	}
	if err != nil {
		return nil, err
	}
	host := currentHost(cfg.root, cfg.commit, steal.share())
	hb, _ := json.Marshal(host)
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", hb)
	m.set("host.steal_share", host.StealShare)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	} else {
		m.set("ok_ratio", 1-ratio(float64(failed), float64(attempted)))
	}
	metrics, err := m.render(defs)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	if cfg.trace {
		m.reportNotMeasured()
		if err := finishTrace(ctx, cfg, tr); err != nil {
			return nil, err
		}
	}
	rs := resultSet{Host: host, Workload: w.Name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Result: *res}
	path := filepath.Join(cfg.work, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.Name, cfg.seed, boolInt(cfg.trace)))
	if err := writeResultSet(path, rs); err != nil {
		return nil, err
	}
	printSummary(res, defs)
	return res, nil
}

// finishTrace writes the run's spans and validates them with tracevet.
func finishTrace(ctx context.Context, cfg config, tr *tracer) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	return vetTrace(ctx, cfg.tracevet, path)
}

// checkDeclared confirms that BENCHMARK.json declares exactly the metrics
// and workloads this program reports.
func checkDeclared(path string) error {
	f, err := readBenchmarkFile(path)
	if err != nil {
		return err
	}
	var problems []string
	cmp := func(kind string, declared map[string]string, defs []metricDef) {
		for _, d := range defs {
			unit, ok := declared[d.Name]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s metric %s is not declared", kind, d.Name))
			case unit != d.Unit:
				problems = append(problems, fmt.Sprintf("%s metric %s has unit %s, declared %s", kind, d.Name, d.Unit, unit))
			}
			delete(declared, d.Name)
		}
		for n := range declared {
			problems = append(problems, fmt.Sprintf("declared %s metric %s is not reported", kind, n))
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, d := range f.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	for _, d := range f.PerLayer {
		layer[d.Name] = d.Unit
	}
	cmp("end-to-end", e2e, endToEnd)
	cmp("per-layer", layer, perLayer)
	known := map[string]bool{}
	for _, w := range workloads {
		known[w.Name] = true
	}
	for _, w := range f.Workloads {
		if !known[w.Name] {
			problems = append(problems, fmt.Sprintf("declared workload %s does not exist", w.Name))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s disagrees with the benchmark: %s", path, strings.Join(problems, "; "))
	}
	return nil
}

func printSummary(res *result, defs []metricDef) {
	for _, d := range defs {
		mo := res.Metrics[d.Name]
		fmt.Fprintf(os.Stderr, "perfbench: %-28s %14.4f %s\n", d.Name, mo.Value, mo.Unit)
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
