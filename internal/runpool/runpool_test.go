package runpool

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// mapBg is MapCtx under a background context with a context-free fn.
func mapBg[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, items, func(_ context.Context, i int, item T) (R, error) {
		return fn(i, item)
	})
}

// TestMapOrdering checks results come back in submission order even when
// tasks finish out of order.
func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16, 100} {
		items := make([]int, 64)
		for i := range items {
			items[i] = i
		}
		rng := rand.New(rand.NewSource(1))
		delays := make([]time.Duration, len(items))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(3)) * time.Millisecond
		}
		got, err := mapBg(workers, items, func(i, v int) (int, error) {
			time.Sleep(delays[i])
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapFirstError checks the reported error is the lowest-indexed
// failure, not whichever failed first on the wall clock.
func TestMapFirstError(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, err := mapBg(4, items, func(i, v int) (int, error) {
		switch i {
		case 2:
			// The higher-indexed failure finishes first.
			return 0, errors.New("fail-2")
		case 5:
			time.Sleep(20 * time.Millisecond)
			return 0, errors.New("fail-5")
		}
		return v, nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("want deterministic first error fail-2, got %v", err)
	}
}

// TestMapPanicSafety checks a panicking task surfaces as *PanicError
// instead of crashing the process.
func TestMapPanicSafety(t *testing.T) {
	_, err := mapBg(2, []int{0, 1, 2}, func(i, v int) (int, error) {
		if i == 1 {
			panic("boom")
		}
		return v, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %T: %v", err, err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Error(), "boom") {
		t.Fatalf("panic value not preserved: %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
}

// TestBoundedConcurrency checks the pool never runs more than `workers`
// tasks at once, including the workers=1 edge case.
func TestBoundedConcurrency(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var inFlight, peak int32
		_, err := mapBg(workers, make([]struct{}, 32), func(i int, _ struct{}) (int, error) {
			n := atomic.AddInt32(&inFlight, 1)
			for {
				p := atomic.LoadInt32(&peak)
				if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			atomic.AddInt32(&inFlight, -1)
			return i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := atomic.LoadInt32(&peak); got > int32(workers) {
			t.Fatalf("workers=%d: peak concurrency %d", workers, got)
		}
	}
}

// TestDefaultWorkers checks non-positive worker counts fall back to
// GOMAXPROCS and still work.
func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	got, err := mapBg(0, []int{1, 2, 3}, func(_, v int) (int, error) { return v + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2 3 4]" {
		t.Fatalf("got %v", got)
	}
}

// TestMapEmpty checks an empty item list returns immediately.
func TestMapEmpty(t *testing.T) {
	got, err := mapBg(4, nil, func(_ int, _ string) (string, error) { return "", nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestPoolSubmitAfterWaitPanics checks pools are single-use.
func TestPoolSubmitAfterWaitPanics(t *testing.T) {
	p := New[int](2)
	p.Submit(func() (int, error) { return 1, nil })
	if _, err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Submit after Wait did not panic")
		}
	}()
	p.Submit(func() (int, error) { return 2, nil })
}

// TestMapDeterministicAcrossWorkerCounts checks the full result set is
// identical for any worker count, which is what the experiment harness
// relies on.
func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []int {
		items := make([]int, 50)
		for i := range items {
			items[i] = i
		}
		got, err := mapBg(workers, items, func(i, v int) (int, error) {
			return v*31 + i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial := run(1)
	for _, workers := range []int{2, 7, 50} {
		if fmt.Sprint(run(workers)) != fmt.Sprint(serial) {
			t.Fatalf("workers=%d diverged from serial", workers)
		}
	}
}

// TestPoolConcurrentSubmit checks Submit is safe to call from multiple
// goroutines (each submitter sees a consistent index).
func TestPoolConcurrentSubmit(t *testing.T) {
	p := New[int](4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				p.Submit(func() (int, error) { return 1, nil })
			}
		}()
	}
	wg.Wait()
	got, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 {
		t.Fatalf("got %d results, want 80", len(got))
	}
}
