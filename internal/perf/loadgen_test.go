package perf

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesFromDueTime drives a handler that stalls its first
// request through one connection: the requests due during the stall
// queue behind it, and each is charged from its due time, so their
// latencies cover the rest of the stall.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	c := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer c.CloseIdleConnections()

	const n, rate = 20, 100.0
	dues := make([]time.Time, n)
	outs := openLoop(context.Background(), n, rate, func(ctx context.Context, i int, due time.Time) outcome {
		dues[i] = due
		resp, err := c.Get(srv.URL)
		if err != nil {
			return outcome{Err: err.Error()}
		}
		resp.Body.Close()
		return outcome{OK: true, Latency: time.Since(due), Late: 0}
	})
	if len(outs) != n {
		t.Fatalf("%d outcomes, want %d", len(outs), n)
	}
	stallEnd := dues[0].Add(stall)
	for i, o := range outs {
		if !o.OK {
			t.Fatalf("request %d: %s", i, o.Err)
		}
		if want := time.Duration(float64(i) / rate * float64(time.Second)); dues[i].Sub(dues[0]) != want {
			t.Errorf("request %d due %v after the first, want %v", i, dues[i].Sub(dues[0]), want)
		}
		if dues[i].Before(stallEnd) {
			if min := stallEnd.Sub(dues[i]); o.Latency < min {
				t.Errorf("request %d, due during the stall, charged %v: less than the %v it waited", i, o.Latency, min)
			}
		}
	}
}

// TestClosedLoopSendsEach checks the closed loop sends every request
// exactly once across its clients.
func TestClosedLoopSendsEach(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	outs, elapsed := closedLoop(context.Background(), 50, 2, func(ctx context.Context, i int, due time.Time) outcome {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return outcome{OK: true, Latency: time.Since(due)}
	})
	if len(outs) != 50 || len(seen) != 50 || elapsed <= 0 {
		t.Fatalf("%d outcomes, %d distinct requests, elapsed %v", len(outs), len(seen), elapsed)
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("request %d sent %d times", i, n)
		}
	}
}

// TestSeedDeterminism: a workload's request stream is a pure function
// of its seed, and different seeds give different streams.
func TestSeedDeterminism(t *testing.T) {
	for name, gen := range map[string]genFunc{"serve-small": genSmall, "serve-mix": genMix, "serve-durable": genDurable} {
		a, b, other := gen(1, 300), gen(1, 300), gen(2, 300)
		same := 0
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) || a[i].runID != b[i].runID || a[i].replay != b[i].replay {
				t.Fatalf("%s: request %d differs between two streams of seed 1", name, i)
			}
			if bytes.Equal(a[i].body, other[i].body) {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", name)
		}
	}
}

// TestDurableReplays: a replay re-sends an earlier new batch at least
// replayGap requests back, under its batch id, and one request in three
// is a replay once enough batches exist.
func TestDurableReplays(t *testing.T) {
	reqs := genDurable(7, 600)
	replays := 0
	for i, r := range reqs {
		if r.replay < 0 {
			continue
		}
		replays++
		o := reqs[r.replay]
		if o.replay >= 0 || i-r.replay < replayGap || o.runID != r.runID || !bytes.Equal(o.body, r.body) {
			t.Fatalf("request %d replays %d: not an earlier new batch's id and body at least %d back", i, r.replay, replayGap)
		}
	}
	if replays < 180 || replays > 200 {
		t.Errorf("%d replays in 600 requests, want about a third", replays)
	}
}
