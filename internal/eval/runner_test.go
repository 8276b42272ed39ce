package eval

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"roload/internal/core"
	"roload/internal/kernel"
	"roload/internal/spec"
)

// TestRunnerParallelMatchesSerial proves result determinism: a wide
// worker pool must produce exactly the points a serial run produces,
// regardless of completion order.
func TestRunnerParallelMatchesSerial(t *testing.T) {
	serial, err := NewRunner(1).Fig3(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8).Fig3(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel run diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// TestRunnerNoFastPathMatches proves the runner's NoFastPath toggle
// changes nothing observable in the measurements.
func TestRunnerNoFastPathMatches(t *testing.T) {
	fast, err := NewRunner(4).Fig3(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	slowRunner := NewRunner(4)
	slowRunner.NoFastPath = true
	slow, err := slowRunner.Fig3(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Errorf("fast-path run diverged from interpreter run:\nfast:   %+v\ninterp: %+v", fast, slow)
	}
}

// TestRunnerImageCache proves compile-once: every Measure of the same
// (source, hardening) shares one image, concurrently and across
// systems.
func TestRunnerImageCache(t *testing.T) {
	r := NewRunner(8)
	source := spec.Workloads()[0].TestSource()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Image(source, core.HardenICall); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	img1, err := r.Image(source, core.HardenICall)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := r.Image(source, core.HardenICall)
	if err != nil {
		t.Fatal(err)
	}
	if img1 != img2 {
		t.Error("repeated Image calls returned distinct images")
	}
	if n := r.images.Metrics().Entries; n != 1 {
		t.Errorf("image cache holds %d entries, want 1", n)
	}

	m1, err := r.Measure(context.Background(), source, core.HardenICall, core.SysFull)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Measure(context.Background(), source, core.HardenICall, core.SysFull)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("memoized Measure returned different measurements")
	}
	if n := r.meas.Metrics().Entries; n != 1 {
		t.Errorf("measurement memo holds %d entries, want 1", n)
	}
}

// TestRunnerImageCacheBounded proves the image cache forgets: a
// stream of distinct sources longer than the cap leaves at most 1024
// images cached, and an evicted source recompiles to the same image.
func TestRunnerImageCacheBounded(t *testing.T) {
	r := NewRunner(1)
	source := func(i int) string {
		return fmt.Sprintf("// salt %d\nfunc main() int { return 0; }\n", i)
	}
	first, err := r.Image(source(0), core.HardenNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 1100; i++ {
		if _, err := r.Image(source(i), core.HardenNone); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.ImageCache().Entries; n > 1024 {
		t.Fatalf("image cache holds %d entries, want at most 1024", n)
	}
	again, hit, err := r.CachedImage(source(0), core.HardenNone)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("the oldest source survived 1099 newer ones")
	}
	if got, want := kernel.ImageDigest(again), kernel.ImageDigest(first); got != want {
		t.Errorf("recompiled image digest %s, want %s", got, want)
	}
}

// TestRunnerForEachLowestError proves the pool surfaces the error a
// serial run would have hit first, whatever the completion order, and
// still visits every index.
func TestRunnerForEachLowestError(t *testing.T) {
	r := NewRunner(8)
	var mu sync.Mutex
	visited := make(map[int]bool)
	err := r.forEach(64, func(i int) error {
		mu.Lock()
		visited[i] = true
		mu.Unlock()
		if i >= 7 && i%3 == 1 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 7" {
		t.Errorf("forEach error = %v, want fail 7", err)
	}
	if len(visited) != 64 {
		t.Errorf("forEach visited %d indices, want 64", len(visited))
	}

	if err := NewRunner(1).forEach(3, func(int) error { return nil }); err != nil {
		t.Errorf("serial forEach: %v", err)
	}
}

// TestRunnerCancelEvictsMemo proves a cancelled Measure does not
// poison the memo: the failed leader's entry is evicted, and a later
// caller with a live context gets a real measurement, identical to an
// uncontended one.
func TestRunnerCancelEvictsMemo(t *testing.T) {
	source := spec.Workloads()[0].TestSource()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the leader must fail with a ctx error
	r := NewRunner(4)
	if _, err := r.Measure(ctx, source, core.HardenNone, core.SysFull); err == nil {
		t.Fatal("Measure with a cancelled context succeeded")
	}
	if stale := r.meas.Metrics().Entries; stale != 0 {
		t.Fatalf("cancelled Measure left %d memo entries", stale)
	}

	got, err := r.Measure(context.Background(), source, core.HardenNone, core.SysFull)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewRunner(1).Measure(context.Background(), source, core.HardenNone, core.SysFull)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("post-eviction measurement diverged: %+v vs %+v", got, want)
	}

	// Concurrent waiters racing a cancelled leader must also converge:
	// each uses its own context, so live callers retry and succeed.
	var wg sync.WaitGroup
	r2 := NewRunner(4)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		live := i%2 == 0
		go func() {
			defer wg.Done()
			c := context.Background()
			if !live {
				var cancel2 context.CancelFunc
				c, cancel2 = context.WithCancel(c)
				cancel2()
			}
			m, err := r2.Measure(c, source, core.HardenNone, core.SysFull)
			if live {
				if err != nil {
					t.Errorf("live waiter failed: %v", err)
				} else if !reflect.DeepEqual(m, want) {
					t.Error("live waiter got a divergent measurement")
				}
			}
		}()
	}
	wg.Wait()
}
