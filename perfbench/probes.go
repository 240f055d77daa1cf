package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// counters is one reading of the program's own metrics in obs.Default,
// keyed by series (name plus rendered labels). The benchmark reads them as
// deltas over its measured windows and adds no instrumentation.
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	if err := obs.Default.WriteText(&buf); err != nil {
		panic(fmt.Sprintf("obs exposition into a buffer failed: %v", err))
	}
	out := counters{}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds up every series of the named family whose labels include all
// of the given key="value" pairs.
func (c counters) sum(name string, labels ...string) float64 {
	var total float64
	for series, v := range c {
		base, lbl := series, ""
		if i := strings.IndexByte(series, '{'); i >= 0 {
			base, lbl = series[:i], series[i:]
		}
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after.sum − before.sum for one family and label filter.
func delta(before, after counters, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// readChar returns the process's rchar from /proc/self/io: bytes passed
// to read-like system calls, page cache hits included.
func readChar() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "rchar: "); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/io has no rchar line")
}

// cpuTime is the process's user plus system CPU time so far, every
// goroutine and the garbage collector included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealClock reads the host's steal time from /proc/stat: the time
// runnable vCPUs of this guest waited for the hypervisor.
type stealClock struct {
	at      time.Time
	jiffies int64
	ok      bool
}

// clockTicks is USER_HZ, the unit of /proc/stat (100 on Linux).
const clockTicks = 100

func readSteal() stealClock {
	s := stealClock{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return s
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	s.jiffies, s.ok = v, err == nil
	return s
}

// share is the share of the nproc vCPUs' time since s that went to steal,
// or -1 when /proc/stat could not be read.
func (s stealClock) share() float64 {
	now := readSteal()
	if !s.ok || !now.ok {
		return -1
	}
	avail := now.at.Sub(s.at).Seconds() * clockTicks * float64(runtime.NumCPU())
	return float64(now.jiffies-s.jiffies) / avail
}

// heapSampler records the peak live heap (as of the latest completed GC)
// while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

// liveHeap is the live heap in bytes as of the latest completed GC.
func liveHeap() uint64 {
	return readRuntime("/gc/heap/live:bytes").Uint64()
}

func readRuntime(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func (h *heapSampler) sample() {
	v := liveHeap()
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// finish stops the sampler and returns the peak in MB (10^6 bytes).
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.sample()
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / 1e6
}

// runtimeWindow is the allocation, GC and CPU activity over a window.
type runtimeWindow struct {
	ms            runtime.MemStats
	gcCPU, allCPU float64
}

func startRuntimeWindow() runtimeWindow {
	var w runtimeWindow
	runtime.ReadMemStats(&w.ms)
	w.gcCPU = readRuntime("/cpu/classes/gc/total:cpu-seconds").Float64()
	w.allCPU = readRuntime("/cpu/classes/total:cpu-seconds").Float64()
	return w
}

// set records the window's per-layer runtime metrics, per thousand of the
// trees answered in it.
func (w runtimeWindow) set(m *values, trees int) {
	end := startRuntimeWindow()
	kt := float64(trees) / 1000
	m.set("runtime.alloc_mb_per_ktree", float64(end.ms.TotalAlloc-w.ms.TotalAlloc)/1e6/kt)
	m.set("runtime.gc_cycles_per_ktree", float64(end.ms.NumGC-w.ms.NumGC)/kt)
	m.set("runtime.gc_cpu_share", ratio(end.gcCPU-w.gcCPU, end.allCPU-w.allCPU))
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// joinFloats formats xs with prec decimals, space-separated, for the
// stderr report.
func joinFloats(xs []float64, prec int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}
