package main

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is how one request ended.
type outcome int

const (
	outOK    outcome = iota
	outWrong         // answered, but not with the expected values
	outShed          // refused by admission (429 or 503)
	outError         // transport error or any other status
)

// sendFunc performs request i of a prepared stream and classifies the
// answer. It returns once the full response was read, and is called
// concurrently from every caller.
type sendFunc func(ctx context.Context, i int) outcome

// loopStats summarises one closed-loop segment.
type loopStats struct {
	Elapsed   time.Duration
	Latencies []float64 // ms, answered requests only
	OK        int
	Failed    int // wrong, shed or errored
	Shed      int
	Exhausted bool // the stream ran out before the segment's time
}

// closedLoop is the benchmark's load generator. Each of callers
// goroutines stands for an analysis pipeline that waits for its reply: it
// takes the next request of a stream of n, sends it and waits for the full
// response before it takes another, until d has passed or the stream is
// used up. A request's latency runs from send to full response. It returns
// once every caller has finished.
func closedLoop(ctx context.Context, callers int, d time.Duration, n int, send sendFunc) loopStats {
	var next atomic.Int64
	var mu sync.Mutex
	var st loopStats
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var ok, failed, shed int
			exhausted := false
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					exhausted = true
					break
				}
				t0 := time.Now()
				out := send(ctx, i)
				switch out {
				case outOK:
					ok++
					lat = append(lat, float64(time.Since(t0))/1e6)
				case outShed:
					shed++
					failed++
				default:
					failed++
				}
			}
			mu.Lock()
			st.Latencies = append(st.Latencies, lat...)
			st.OK += ok
			st.Failed += failed
			st.Shed += shed
			st.Exhausted = st.Exhausted || exhausted
			mu.Unlock()
		}()
	}
	wg.Wait()
	st.Elapsed = time.Since(start)
	return st
}

// newTransport returns a client transport that never opens more than
// conns connections to the service.
func newTransport(conns int) *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}
