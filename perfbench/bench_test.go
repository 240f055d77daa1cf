package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tree"
)

// Tiny versions of the workloads keep the tests to seconds.
var (
	tinyQR      = workload{Name: "tiny-qr", Kind: batchQR, Taxa: 16, Refs: 50, Oracle: 4}
	tinyQvR     = workload{Name: "tiny-qvr", Kind: batchQvR, Taxa: 40, Refs: 20, Queries: 10, NNI: 2, Oracle: 3}
	tinySharded = workload{Name: "tiny-sharded", Kind: serveDistributed, Taxa: 16, Refs: 120, Queries: 256, Oracle: 4,
		TreesPerReq: 4, RepeatP: 0.5, Requests: 60}
	tiny = []workload{tinyQR, tinyQvR, tinySharded}
)

// withTinyWorkloads makes the tiny workloads resolvable by name and
// returns a config rooted at a copy of BENCHMARK.json.
func withTinyWorkloads(t *testing.T) config {
	t.Helper()
	saved := workloads
	workloads = append(append([]workload(nil), workloads...), tiny...)
	t.Cleanup(func() { workloads = saved })
	root := t.TempDir()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return config{seed: 7, seconds: 0.6, root: root, work: filepath.Join(root, ".bench_build")}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for _, w := range tiny {
		a, err := generate(t.TempDir(), w, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(t.TempDir(), w, 3)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(t.TempDir(), w, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Oracle, b.Oracle) || !reflect.DeepEqual(a.Expected, b.Expected) {
			t.Errorf("%s: seed 3 generated twice gives different oracle or expected answers", w.Name)
		}
		for name := range a.Files {
			fa, err := os.ReadFile(a.path(name))
			if err != nil {
				t.Fatal(err)
			}
			fb, _ := os.ReadFile(b.path(name))
			fc, _ := os.ReadFile(c.path(name))
			if !bytes.Equal(fa, fb) {
				t.Errorf("%s/%s: seed 3 generated twice differs", w.Name, name)
			}
			if bytes.Equal(fa, fc) {
				t.Errorf("%s/%s: seeds 3 and 4 generated identical bytes", w.Name, name)
			}
		}
	}
}

func TestBatchAnswersMatchOracle(t *testing.T) {
	for _, w := range []workload{tinyQR, tinyQvR} {
		in, err := generate(t.TempDir(), w, 5)
		if err != nil {
			t.Fatal(err)
		}
		_, res, bad, err := batchCall(in)
		if err != nil || bad != 0 {
			t.Fatalf("%s: %d wrong answers, err %v", w.Name, bad, err)
		}
		res[in.Oracle[0].Index].AvgRF += 1
		if got := checkBatch(in, res); got != 1 {
			t.Errorf("%s: a corrupted answer counted %d failures, want 1", w.Name, got)
		}
	}
}

// wrongAfter answers correctly for its first n queries, then adds one to
// every average: a deliberately wrong Backend decorator.
type wrongAfter struct {
	serve.Backend
	n     int64
	calls *atomic.Int64
}

func (w wrongAfter) Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*serve.Answer, error) {
	ans, err := w.Backend.Query(ctx, trees, v)
	if err != nil || w.calls.Add(1) <= w.n {
		return ans, err
	}
	out := *ans
	out.Results = append([]core.Result(nil), ans.Results...)
	for i := range out.Results {
		out.Results[i].AvgRF++
	}
	return &out, nil
}

func TestWrongBackendTripsGate(t *testing.T) {
	cfg := withTinyWorkloads(t)
	cfg.workload = tinySharded.Name
	var calls atomic.Int64
	cfg.decorate = func(b serve.Backend) serve.Backend {
		// The first set-up's answer stays right; every later answer,
		// set-ups' included, is wrong and must count as a failure in a
		// run that still reports a result.
		return wrongAfter{Backend: b, n: 1, calls: &calls}
	}
	res, err := execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("wrong answers passed the gate: %+v", res)
	}
	if ok := res.Metrics["ok_ratio"].Value; ok >= 1 {
		t.Errorf("ok_ratio %v with wrong answers", ok)
	}

	cfg.decorate = nil
	res, err = execute(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Metrics["ok_ratio"].Value != 1 {
		t.Fatalf("correct backend failed the gate: %+v", res)
	}
}

// concurrencyServer answers after a short delay and records the most
// requests it ever held at once.
type concurrencyServer struct {
	now, most atomic.Int64
}

func (s *concurrencyServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	io.Copy(io.Discard, r.Body)
	n := s.now.Add(1)
	for {
		m := s.most.Load()
		if n <= m || s.most.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	s.now.Add(-1)
	w.WriteHeader(http.StatusOK)
}

func TestClosedLoopHoldsOneRequestPerCaller(t *testing.T) {
	for _, callers := range []int{1, runtime.NumCPU()} {
		srv := &concurrencyServer{}
		ts := httptest.NewServer(srv)
		client := &http.Client{Transport: newTransport(callers)}
		st := closedLoop(context.Background(), callers, 200*time.Millisecond, 1<<20, func(ctx context.Context, i int) outcome {
			resp, err := client.Post(ts.URL, "application/json", strings.NewReader("{}"))
			if err != nil {
				return outError
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return outOK
		})
		client.CloseIdleConnections()
		ts.Close()
		if st.Failed != 0 || st.OK == 0 || len(st.Latencies) != st.OK {
			t.Fatalf("%d callers: %+v", callers, st)
		}
		if most := srv.most.Load(); most > int64(callers) {
			t.Errorf("%d callers held %d requests at once", callers, most)
		}
		if st.Elapsed < 200*time.Millisecond {
			t.Errorf("%d callers stopped after %v, before the segment's time", callers, st.Elapsed)
		}
	}
	// A stream shorter than the segment ends it early and says so.
	st := closedLoop(context.Background(), 2, time.Minute, 5, func(context.Context, int) outcome { return outOK })
	if !st.Exhausted || st.OK != 5 {
		t.Errorf("a 5-request stream: %+v", st)
	}
}

func TestRunsReportEveryEndToEndMetric(t *testing.T) {
	cfg := withTinyWorkloads(t)
	for _, w := range tiny {
		cfg.workload = w.Name
		res, err := execute(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %+v", w.Name, res)
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want a positive value", w.Name, d.Name, v)
			}
		}
	}
}

func TestSpanNamesAreLayerMetrics(t *testing.T) {
	// Every span-backed metric is its span's name plus a unit suffix.
	for _, m := range perLayer {
		if m.Span == "" {
			continue
		}
		suffix := strings.TrimPrefix(m.Name, m.Span+"_")
		if suffix == m.Name || (suffix != "s" && suffix != "ms_p50" && suffix != "ms_p90") {
			t.Errorf("metric %s does not name span %s with a unit suffix", m.Name, m.Span)
		}
	}
	// The traced runs record exactly the spans those metrics name, in a
	// trace that cmd/tracevet accepts.
	cfg := withTinyWorkloads(t)
	cfg.trace = true
	got := map[string]bool{}
	for _, w := range tiny {
		cfg.workload = w.Name
		res, err := execute(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct {
			t.Fatalf("%s: traced run not correct: %+v", w.Name, res)
		}
		path := filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed))
		vetWithTracevet(t, path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
			var tr obs.Trace
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			for _, s := range tr.Spans {
				got[s.Name] = true
			}
		}
	}
	want := spanNames()
	for n := range got {
		if !want[n] {
			t.Errorf("span %s has no per-layer metric", n)
		}
	}
	for n := range want {
		if !got[n] {
			t.Errorf("per-layer metric span %s was never recorded", n)
		}
	}
}

// vetWithTracevet validates a written trace with the repository's
// cmd/tracevet.
func vetWithTracevet(t *testing.T, path string) {
	t.Helper()
	out, err := exec.Command("go", "run", "repro/cmd/tracevet", "-min-traces", "1", path).CombinedOutput()
	if err != nil {
		t.Fatalf("tracevet rejected the trace: %v\n%s", err, out)
	}
}

func TestBenchmarkJSONDeclaresReportedMetrics(t *testing.T) {
	if err := checkDeclared("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsCrossHost(t *testing.T) {
	dir := t.TempDir()
	host := currentHost("", "none", 0)
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metricOut{"p50_ms": {Value: 2, Unit: "ms"}}}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := writeResultSet(a, resultSet{Host: host, Workload: "w", Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := writeResultSet(b, resultSet{Host: host, Workload: "w", Result: res}); err != nil {
		t.Fatal(err)
	}
	if err := compareResults(io.Discard, a, b); err != nil {
		t.Fatalf("same host flagged: %v", err)
	}
	other := host
	other.CPUModel = "another CPU"
	other.NumCPU++
	if err := writeResultSet(b, resultSet{Host: other, Workload: "w", Result: res}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := compareResults(&out, a, b)
	if err == nil || !strings.Contains(out.String(), "HOST MISMATCH") {
		t.Fatalf("cross-host comparison not flagged: err %v, output %q", err, out.String())
	}
}

func TestEvictKeepsNewestInputSets(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	for i := 0; i < 5; i++ {
		set := filepath.Join(dir, "set"+strconv.Itoa(i))
		manifest := filepath.Join(set, "manifest.json")
		if err := os.MkdirAll(set, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifest, []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
		mod := now.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(manifest, mod, mod); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(dir, "incomplete"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := evictInputs(dir, 2); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range entries {
		left = append(left, e.Name())
	}
	if got := strings.Join(left, ","); got != "incomplete,set3,set4" {
		t.Errorf("after eviction %s remain, want incomplete,set3,set4", got)
	}
}
