package retain

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// parkCtx announces on parked the first time a caller asks for its
// Done channel: Do does so only as a waiter bound to an entry, so a
// closed parked proves the waiter will see that entry's verdict.
type parkCtx struct {
	context.Context
	parked chan struct{}
	once   sync.Once
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// memoResult is what one Do call returned (or panicked with).
type memoResult struct {
	v     int
	led   bool
	err   error
	panic any
}

func doMemo(ctx context.Context, m *Memo[string, int], key string, fn func() (int, bool)) (r memoResult) {
	defer func() { r.panic = recover() }()
	r.v, r.led, r.err = m.Do(ctx, key, fn)
	return r
}

// TestMemo drives one key through a leader that parks until every
// waiter is parked on its entry, then keeps (value 1), drops or panics.
// Waiters that lead afresh compute value 2; a follow-up call computes 4
// if it leads.
func TestMemo(t *testing.T) {
	cases := []struct {
		name    string
		cap     int
		lead    string // "keep", "drop" or "panic"
		waiters int
		cancel  bool // cancel every waiter while it waits
		evict   bool // another key evicts the leader's entry while it runs

		waiterVal  int   // value every waiter gets
		waiterLeds int   // waiters that led afresh
		waiterErr  error // error every waiter gets
		runs       int   // computations of the key before the follow-up
		entries    int   // entries held before the follow-up
		afterVal   int   // the follow-up's value: 4 when it leads afresh
		hits       int   // final metrics
		misses     int
	}{
		{name: "single flight", cap: memoCap, lead: "keep", waiters: 16,
			waiterVal: 1, runs: 1, entries: 1, afterVal: 1, hits: 17, misses: 1},
		{name: "value not kept", cap: memoCap, lead: "drop", waiters: 3,
			waiterVal: 2, waiterLeds: 1, runs: 2, entries: 1, afterVal: 2, hits: 3, misses: 2},
		{name: "waiter canceled", cap: memoCap, lead: "keep", waiters: 2, cancel: true,
			waiterErr: context.Canceled, runs: 1, entries: 1, afterVal: 1, hits: 1, misses: 1},
		{name: "leader panics", cap: memoCap, lead: "panic", waiters: 2,
			waiterVal: 2, waiterLeds: 1, runs: 2, entries: 1, afterVal: 2, hits: 2, misses: 2},
		{name: "leader panics alone", cap: memoCap, lead: "panic",
			runs: 1, entries: 0, afterVal: 4, hits: 0, misses: 2},
		{name: "evicted while running", cap: 1, lead: "keep", waiters: 2, evict: true,
			waiterVal: 1, runs: 1, entries: 1, afterVal: 4, hits: 2, misses: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMemo[string, int](tc.cap)
			var runs atomic.Int32
			started, release := make(chan struct{}), make(chan struct{})
			leaderDone := make(chan memoResult)
			go func() {
				leaderDone <- doMemo(context.Background(), m, "k", func() (int, bool) {
					runs.Add(1)
					close(started)
					<-release
					if tc.lead == "panic" {
						panic("leader panic")
					}
					return 1, tc.lead == "keep"
				})
			}()
			<-started

			results := make([]memoResult, tc.waiters)
			cancels := make([]context.CancelFunc, tc.waiters)
			var wg sync.WaitGroup
			for i := range results {
				ctx, cancel := context.WithCancel(context.Background())
				pc := &parkCtx{Context: ctx, parked: make(chan struct{})}
				cancels[i] = cancel
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = doMemo(pc, m, "k", func() (int, bool) {
						runs.Add(1)
						return 2, true
					})
				}()
				<-pc.parked
			}
			if tc.evict {
				doMemo(context.Background(), m, "other", func() (int, bool) { return 3, true })
			}
			if tc.cancel {
				for _, cancel := range cancels {
					cancel()
				}
				wg.Wait() // the leader is still parked
			}
			close(release)
			leader := <-leaderDone
			wg.Wait()
			for _, cancel := range cancels {
				cancel()
			}

			if tc.lead == "panic" {
				if leader.panic != "leader panic" {
					t.Errorf("leader panic = %v, want it re-raised", leader.panic)
				}
			} else if leader.v != 1 || !leader.led || leader.err != nil {
				t.Errorf("leader = %+v, want 1, led", leader)
			}
			leds := 0
			for i, r := range results {
				if r.led {
					leds++
				}
				if r.panic != nil || !errors.Is(r.err, tc.waiterErr) || tc.waiterErr == nil && r.v != tc.waiterVal {
					t.Errorf("waiter %d = %+v, want %d, err %v", i, r, tc.waiterVal, tc.waiterErr)
				}
			}
			if leds != tc.waiterLeds {
				t.Errorf("%d waiters led, want %d", leds, tc.waiterLeds)
			}
			if got := int(runs.Load()); got != tc.runs {
				t.Errorf("key computed %d times, want %d", got, tc.runs)
			}
			if got := int(m.Metrics().Entries); got != tc.entries {
				t.Errorf("entries = %d, want %d", got, tc.entries)
			}

			after := doMemo(context.Background(), m, "k", func() (int, bool) { return 4, true })
			if after.v != tc.afterVal || after.led != (tc.afterVal == 4) {
				t.Errorf("follow-up = %+v, want %d", after, tc.afterVal)
			}
			if got := m.Metrics(); int(got.Hits) != tc.hits || int(got.Misses) != tc.misses {
				t.Errorf("metrics = %+v, want %d hits, %d misses", got, tc.hits, tc.misses)
			}
		})
	}
}
