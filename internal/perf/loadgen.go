package perf

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one completed request as the load generator saw it.
type outcome struct {
	// Latency runs from the request's due time (open loop) or its send
	// time (closed loop) to the arrival of the whole response.
	Latency time.Duration
	// Late is how far behind its due time the request was sent.
	Late time.Duration
	// OK is set for a conclusive response that passed every check;
	// Refused for a shed answer (429/503); Err names the failed check.
	OK      bool
	Refused bool
	Err     string
	// Attempts counts the client's tries for the request.
	Attempts int
}

// sendFunc performs one request that was due at due and reports how it
// went. It must time Latency from due.
type sendFunc func(ctx context.Context, i int, due time.Time) outcome

// openLoop issues requests 0..n-1 at a fixed rate regardless of how
// many are outstanding, as independent users would. Each request is
// due at start + i/rate and timed from that instant, so a stall charges
// every request queued behind it, not only the one it hit; the
// scheduler sleeps to each due time instead of riding a ticker, so it
// never drops a late tick. It returns once every request has answered.
func openLoop(ctx context.Context, n int, rate float64, send sendFunc) []outcome {
	out := make([]outcome, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if !sleepUntil(ctx, due) {
			wg.Wait()
			return out[:i]
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			out[i] = send(ctx, i, due)
		}(i, due)
	}
	wg.Wait()
	return out
}

// sleepUntil waits until t and reports false if ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// closedLoop has clients callers each send their next request only
// after the previous one answered, until n requests were sent. It
// returns the outcomes and the phase's wall time.
func closedLoop(ctx context.Context, n, clients int, send sendFunc) ([]outcome, time.Duration) {
	out := make([]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = send(ctx, i, time.Now())
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// latenciesMS returns the latencies of the verified successes, in ms.
func latenciesMS(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.OK {
			xs = append(xs, ms(o.Latency))
		}
	}
	return xs
}

// sloMissPct is the share of requests, in percent, that missed the
// latency limit: failed and refused requests miss it by definition.
func sloMissPct(outs []outcome, limit time.Duration) float64 {
	if len(outs) == 0 {
		return 0
	}
	miss := 0
	for _, o := range outs {
		if !o.OK || o.Latency > limit {
			miss++
		}
	}
	return 100 * float64(miss) / float64(len(outs))
}

// withinLimit counts verified successes that met the latency limit.
func withinLimit(outs []outcome, limit time.Duration) int {
	n := 0
	for _, o := range outs {
		if o.OK && o.Latency <= limit {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
