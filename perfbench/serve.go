package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/serve"
	"repro/internal/tree"
)

const (
	collectionName = "bench"
	workerCount    = 2
	// segmentTime is the length of one closed-loop segment of an untraced
	// serve run; segmentsPerSetup latency and throughput segments follow
	// each set-up.
	segmentTime      = 500 * time.Millisecond
	segmentsPerSetup = 2
)

// serveBench drives the serve workload: an in-process serve.Service on a
// loopback listener, fronting serve.Distributed over a distrib
// coordinator and workerCount in-process workers, called over at most
// nproc keep-alive connections.
type serveBench struct {
	w   workload
	in  *inputSet
	tr  *tracer
	tmp string

	// reqs is the prepared request stream: the pool indices of each
	// request's trees and its JSON body, built before any measurement.
	reqs   [][]int
	bodies [][]byte

	cat     *serve.Catalog
	srv     *http.Server
	srvDone chan error
	url     string
	client  *http.Client

	// decorate wraps the served backend (tests use it to install a
	// deliberately wrong one).
	decorate func(serve.Backend) serve.Backend

	workers  []net.Listener
	workerWG sync.WaitGroup
	coord    *distrib.Coordinator

	// tracing turns on the client span and trace header per request.
	tracing bool

	snapBytes int64
}

func newServeBench(w workload, in *inputSet, tr *tracer, seed int64, tmp string) (*serveBench, error) {
	b := &serveBench{w: w, in: in, tr: tr, tmp: tmp}
	if err := b.prepare(seed); err != nil {
		return nil, err
	}
	b.cat = serve.NewCatalog("", 0)
	mux := http.NewServeMux()
	serve.New(serve.Config{}, b.cat).Register(mux)
	var h http.Handler = mux
	if tr != nil {
		h = b.tracedHandler(mux)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	b.srvDone = make(chan error, 1)
	go func() { b.srvDone <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String() + "/v1/query"
	b.client = &http.Client{Transport: newTransport(runtime.NumCPU()), Timeout: 30 * time.Second}
	for i := 0; i < workerCount; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.close()
			return nil, err
		}
		b.workers = append(b.workers, l)
		b.workerWG.Add(1)
		go func() {
			defer b.workerWG.Done()
			distrib.ServeWorker(l, &distrib.Worker{}) //nolint:errcheck — ends when l closes
		}()
	}
	return b, nil
}

// close stops the HTTP server, the coordinator and the workers, and waits
// for their goroutines.
func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	b.client.CloseIdleConnections()
	b.srv.Shutdown(ctx) //nolint:errcheck — best effort; Serve's result below
	if err := <-b.srvDone; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
	}
	b.cat.Close()
	if b.coord != nil {
		b.coord.Close()
	}
	for _, l := range b.workers {
		l.Close()
	}
	b.workerWG.Wait()
}

// prepare builds the request stream: each slot repeats a tree sent
// earlier in the stream with probability RepeatP and otherwise takes the
// next fresh pool tree. It fails when the stream needs more fresh trees
// than the pool holds, so the repeat share stays RepeatP.
func (b *serveBench) prepare(seed int64) error {
	f, err := os.Open(b.in.queryPath())
	if err != nil {
		return err
	}
	defer f.Close()
	var pool [][]byte // each pool tree as a JSON string literal
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		enc, err := json.Marshal(line)
		if err != nil {
			return err
		}
		pool = append(pool, enc)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(pool) != len(b.in.Expected) {
		return fmt.Errorf("pool holds %d trees, %d expected answers", len(pool), len(b.in.Expected))
	}
	rng := rand.New(rand.NewSource(seed*131 + 7))
	var used []int
	for i := 0; i < b.w.Requests; i++ {
		req := make([]int, b.w.TreesPerReq)
		for k := range req {
			if len(used) > 0 && rng.Float64() < b.w.RepeatP {
				req[k] = used[rng.Intn(len(used))]
				continue
			}
			if len(used) == len(pool) {
				return fmt.Errorf("a stream of %d requests needs more than the %d fresh trees of the pool", b.w.Requests, len(pool))
			}
			req[k] = len(used)
			used = append(used, len(used))
		}
		var buf bytes.Buffer
		buf.WriteString(`{"collection":"` + collectionName + `","trees":[`)
		for k, t := range req {
			if k > 0 {
				buf.WriteByte(',')
			}
			buf.Write(pool[t])
		}
		buf.WriteString("]}")
		b.reqs = append(b.reqs, req)
		b.bodies = append(b.bodies, buf.Bytes())
	}
	return nil
}

// register installs backend as the served collection.
func (b *serveBench) register(backend serve.Backend) error {
	if b.tr != nil {
		backend = timedBackend{Backend: backend, tr: b.tr}
	}
	if b.decorate != nil {
		backend = b.decorate(backend)
	}
	return b.cat.Register(collectionName, backend)
}

// setup builds the sharded hash on the workers from R through a loading
// coordinator, publishes it as a worker-layout snapshot epoch, restores the
// epoch on a fresh serving coordinator registered in the catalog, and
// sends the first request. It returns the time those steps took, from a
// collected heap, and how the answer came out.
func (b *serveBench) setup(ctx context.Context, rep int) (time.Duration, outcome, error) {
	dir := filepath.Join(b.tmp, fmt.Sprintf("snap-%d", rep))
	runtime.GC()
	start := time.Now()
	if err := b.build(ctx, dir); err != nil {
		return 0, outError, err
	}
	out := b.send(ctx, 0)
	d := time.Since(start)
	var err error
	if b.snapBytes, err = dirBytes(dir); err != nil {
		return 0, out, err
	}
	return d, out, os.RemoveAll(dir)
}

func (b *serveBench) dial() (*distrib.Coordinator, error) {
	addrs := make([]string, len(b.workers))
	for i, l := range b.workers {
		addrs[i] = l.Addr().String()
	}
	c, err := distrib.Dial(addrs)
	if err != nil {
		return nil, err
	}
	c.RPCTimeout = 30 * time.Second
	c.Retry = distrib.RetryPolicy{MaxAttempts: 3}
	c.Cache = core.NewQueryCache(0, 0)
	return c, nil
}

func (b *serveBench) build(ctx context.Context, dir string) error {
	loader, err := b.dial()
	if err != nil {
		return err
	}
	defer loader.Close()
	refs, err := collection.OpenFileOpts(b.in.refPath(), collection.Options{})
	if err != nil {
		return err
	}
	defer refs.Close()
	ts, err := collection.ScanTaxa(refs)
	if err != nil {
		return err
	}
	sp := b.tr.root("distrib.load")
	err = loader.LoadContext(ctx, refs, ts, false)
	sp.end()
	if err != nil {
		return err
	}
	sp = b.tr.root("bfhsnap.save")
	epoch, err := loader.SaveSnapshotsContext(ctx, dir)
	sp.end()
	if err != nil {
		return err
	}
	sp = b.tr.root("bfhsnap.load")
	coord, err := b.dial()
	if err == nil {
		err = coord.LoadSnapshotContext(ctx, dir)
	}
	sp.end()
	if err != nil {
		if coord != nil {
			coord.Close()
		}
		return err
	}
	old := b.coord
	b.coord = coord
	if err := b.register(&serve.Distributed{Coord: coord, Epoch: epoch}); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	return nil
}

type queryReply struct {
	Results []struct {
		Index int     `json:"index"`
		AvgRF float64 `json:"avg_rf"`
	} `json:"results"`
}

// send posts request i of the stream and checks every answer against the
// expected values; it returns when the full response was read.
func (b *serveBench) send(ctx context.Context, i int) outcome {
	trees := b.reqs[i]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url, bytes.NewReader(b.bodies[i]))
	if err != nil {
		return outError
	}
	req.Header.Set("Content-Type", "application/json")
	var tr *tracer
	if b.tracing {
		tr = b.tr
	}
	cs := tr.root("serve.client")
	if tr != nil {
		req.Header.Set(traceHeader, cs.trace+"-"+cs.id)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return outError
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	cs.end()
	if err != nil {
		return outError
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		return outShed
	case resp.StatusCode != http.StatusOK:
		return outError
	}
	var rep queryReply
	if err := json.Unmarshal(data, &rep); err != nil || len(rep.Results) != len(trees) {
		return outWrong
	}
	for k, r := range rep.Results {
		if r.Index != k || !sameAnswer(r.AvgRF, b.in.Expected[trees[k]]) {
			return outWrong
		}
	}
	return outOK
}

// segment runs the request stream with callers closed-loop callers for d,
// from an empty coordinator result cache and a collected heap, so every
// segment sees the same traffic. Its attempted and failed counts are in
// trees.
func (b *serveBench) segment(ctx context.Context, callers int, d time.Duration) loopStats {
	// No query is in flight between segments.
	b.coord.Cache = core.NewQueryCache(0, 0)
	runtime.GC()
	st := closedLoop(ctx, callers, d, len(b.reqs), b.send)
	if st.Exhausted {
		fmt.Fprintf(os.Stderr, "perfbench: warning: a %v segment used up the %d-request stream\n", d, len(b.reqs))
	}
	return st
}

// trees converts a request count to the trees they carry.
func (b *serveBench) trees(requests int) int { return requests * b.w.TreesPerReq }

// runServe is the untraced serve run. It repeats a cycle until the cycles
// have taken the run's seconds: a timed set-up, a short unmeasured
// warm-up, then segmentsPerSetup pairs of segments, one with a single
// caller (latency) and one with nproc callers (throughput and CPU per
// tree). Set-ups and segments thus spread over the whole run, and each
// metric is a median over them or a percentile over all latency samples.
func runServe(ctx context.Context, cfg config, w workload, in *inputSet, tmp string, m *values) (attempted, failed int, err error) {
	b, err := newServeBench(w, in, nil, cfg.seed, tmp)
	if err != nil {
		return 0, 0, err
	}
	defer b.close()
	b.decorate = cfg.decorate
	// The benchmark's own state (request stream, expected answers) is the
	// baseline that peak_heap_mb excludes.
	runtime.GC()
	baseMB := float64(liveHeap()) / 1e6
	callers := runtime.NumCPU()
	var setups, rates, cpus, peaks, lat, p50s, p90s []float64
	count := func(st loopStats) {
		attempted += b.trees(st.OK + st.Failed)
		failed += b.trees(st.Failed)
	}
	start := time.Now()
	for rep := 0; rep < 3 || time.Since(start).Seconds() < cfg.seconds; rep++ {
		d, out, err := b.setup(ctx, rep)
		attempted += b.trees(1)
		if out != outOK {
			failed += b.trees(1)
		}
		if err != nil {
			return attempted, failed, err
		}
		setups = append(setups, d.Seconds())
		count(b.segment(ctx, callers, segmentTime/5))
		for k := 0; k < segmentsPerSetup; k++ {
			st := b.segment(ctx, 1, segmentTime)
			count(st)
			lat = append(lat, st.Latencies...)
			p50s = append(p50s, quantile(st.Latencies, 0.5))
			p90s = append(p90s, quantile(st.Latencies, 0.9))

			heap := startHeapSampler()
			c0 := cpuTime()
			st = b.segment(ctx, callers, segmentTime)
			cpu := cpuTime() - c0
			peaks = append(peaks, heap.finish()-baseMB)
			count(st)
			rates = append(rates, float64(b.trees(st.OK))/st.Elapsed.Seconds())
			cpus = append(cpus, cpu.Seconds()*1e3/float64(max(1, b.trees(st.OK))))
		}
	}
	m.set("trees_per_s", median(rates))
	m.set("cpu_ms_per_tree", median(cpus))
	m.set("p50_ms", quantile(lat, 0.5))
	m.set("p90_ms", quantile(lat, 0.9))
	m.set("peak_heap_mb", median(peaks))
	m.set("setup_s", median(setups))
	sb, _ := json.Marshal(map[string][]float64{"rates": rates, "cpus": cpus, "setups": setups, "p50s": p50s, "p90s": p90s})
	fmt.Fprintf(os.Stderr, "perfbench: samples %s\n", sb)
	fmt.Fprintf(os.Stderr, "perfbench: set-ups (s): %s\n", joinFloats(setups, 3))
	fmt.Fprintf(os.Stderr, "perfbench: %d callers, trees/s per segment: %s\n", callers, joinFloats(rates, 0))
	fmt.Fprintf(os.Stderr, "perfbench: one caller: %d samples, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n",
		len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99))
	return attempted, failed, nil
}

// runServeTraced is the traced serve run: one set-up with the distrib and
// snapshot spans, then three phases. A single caller untraced and then
// traced gives the tracing overhead and the client, handler and backend
// spans behind p50_ms; nproc callers traced give the client wait behind
// trees_per_s and the window of the program's counters.
func runServeTraced(ctx context.Context, cfg config, w workload, in *inputSet, tr *tracer, tmp string, m *values) (attempted, failed int, err error) {
	b, err := newServeBench(w, in, tr, cfg.seed, tmp)
	if err != nil {
		return 0, 0, err
	}
	defer b.close()
	b.decorate = cfg.decorate
	count := func(st loopStats) {
		attempted += b.trees(st.OK + st.Failed)
		failed += b.trees(st.Failed)
	}
	_, out, err := b.setup(ctx, 0)
	attempted = b.trees(1)
	if out != outOK {
		failed = attempted
	}
	if err != nil {
		return attempted, failed, err
	}
	m.skip("the serve workload makes no batch call", "repro.", "collection.", "newick.", "bipart.", "core.probe", "core.build", "core.query")
	m.skip("the serve spans nest (client, handler, backend); coverage is defined for the batch blocking steps", "bench.step_coverage")
	m.skip("the sharded table lives in the distrib workers", "core.unique", "bfhtable.footprint")
	m.set("distrib.load_s", tr.total("distrib.load"))
	m.set("bfhsnap.save_s", tr.total("bfhsnap.save"))
	m.set("bfhsnap.load_s", tr.total("bfhsnap.load"))
	m.set("bfhsnap.mb", float64(b.snapBytes)/1e6)

	phase := time.Duration(cfg.seconds / 3 * float64(time.Second))
	count(b.segment(ctx, 1, segmentTime/5))
	plain := b.segment(ctx, 1, phase)
	count(plain)

	b.tracing = true
	first := tr.traceCount()
	one := b.segment(ctx, 1, phase)
	count(one)
	oneTraces := tr.traceIDs(first)

	c0, rt := readCounters(), startRuntimeWindow()
	first = tr.traceCount()
	many := b.segment(ctx, runtime.NumCPU(), phase)
	rt.set(m, b.trees(many.OK))
	c1 := readCounters()
	manyTraces := tr.traceIDs(first)
	count(many)

	client, handler, backend := tr.byTrace("serve.client"), tr.byTrace("serve.handler"), tr.byTrace("serve.backend")
	var clientMs, handlerMs, backendMs, front, wait []float64
	for _, id := range oneTraces {
		c, h, be := client[id], handler[id], backend[id]
		if c == 0 || h == 0 || be == 0 {
			continue
		}
		clientMs = append(clientMs, float64(c)/1e6)
		handlerMs = append(handlerMs, float64(h)/1e6)
		backendMs = append(backendMs, float64(be)/1e6)
		front = append(front, float64(h-be)/1e6)
	}
	for _, id := range manyTraces {
		if c, h := client[id], handler[id]; c != 0 && h != 0 {
			wait = append(wait, float64(c-h)/1e6)
		}
	}
	m.set("serve.client_ms_p50", quantile(clientMs, 0.5))
	m.set("serve.handler_ms_p50", quantile(handlerMs, 0.5))
	m.set("serve.handler_ms_p90", quantile(handlerMs, 0.9))
	m.set("serve.backend_ms_p50", quantile(backendMs, 0.5))
	m.set("serve.backend_ms_p90", quantile(backendMs, 0.9))
	m.set("serve.front_ms_p50", quantile(front, 0.5))
	m.set("serve.client_wait_ms_p50", quantile(wait, 0.5))
	m.set("serve.shed", delta(c0, c1, "bfhrf_requests_shed_total"))
	untracedP50 := quantile(plain.Latencies, 0.5)
	m.set("bench.trace_overhead_pct", (quantile(one.Latencies, 0.5)-untracedP50)/untracedP50*100)

	hits := delta(c0, c1, "bfhrf_cache_hit_total")
	m.set("core.cache_hit_ratio", ratio(hits, hits+delta(c0, c1, "bfhrf_cache_miss_total")))
	lookups := delta(c0, c1, "bfhrf_hash_lookups_total")
	m.set("bfhtable.lookups", lookups)
	m.set("bfhtable.miss_ratio", ratio(delta(c0, c1, "bfhrf_hash_misses_total"), lookups))
	reqs := float64(many.OK + many.Failed)
	const coordSide, workerSide = `side="coordinator"`, `side="worker"`
	m.set("distrib.rpc_bytes_per_req", ratio(delta(c0, c1, "bfhrf_rpc_bytes_total", coordSide), reqs))
	coordN := delta(c0, c1, "bfhrf_rpc_latency_seconds_count", coordSide, `method="Query"`)
	coordS := delta(c0, c1, "bfhrf_rpc_latency_seconds_sum", coordSide, `method="Query"`)
	workN := delta(c0, c1, "bfhrf_rpc_latency_seconds_count", workerSide, `method="Query"`)
	workS := delta(c0, c1, "bfhrf_rpc_latency_seconds_sum", workerSide, `method="Query"`)
	m.set("distrib.rpcs_per_req", ratio(coordN, reqs))
	m.set("distrib.worker_ms_mean", ratio(workS, workN)*1e3)
	m.set("distrib.wire_ms_mean", (ratio(coordS, coordN)-ratio(workS, workN))*1e3)
	m.set("distrib.retries", delta(c0, c1, "bfhrf_rpc_retries_total"))
	return attempted, failed, nil
}

// tracedHandler opens a serve.handler span for requests that carry a
// client trace header and passes the span to the backend decorator
// through the request context.
func (b *serveBench) tracedHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, parent, ok := strings.Cut(r.Header.Get(traceHeader), "-")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		hs := b.tr.join("serve.handler", trace, parent)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), handlerSpanKey{}, hs)))
		hs.end()
	})
}

type handlerSpanKey struct{}

// timedBackend is a Backend decorator that opens a serve.backend span
// under the request's handler span.
type timedBackend struct {
	serve.Backend
	tr *tracer
}

func (t timedBackend) Query(ctx context.Context, trees []*tree.Tree, v core.Variant) (*serve.Answer, error) {
	hs, _ := ctx.Value(handlerSpanKey{}).(*span)
	if hs == nil {
		return t.Backend.Query(ctx, trees, v)
	}
	s := hs.child("serve.backend")
	ans, err := t.Backend.Query(ctx, trees, v)
	s.end()
	return ans, err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
