package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunUntil(30)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunUntil(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

// TestPostReservedTieBreak posts events under reserved sequence numbers
// after others were scheduled: among simultaneous events each fires where
// it would have had it been posted at its reservation, in reservation
// order whatever the posting order.
func TestPostReservedTieBreak(t *testing.T) {
	e := NewEngine()
	var got []string
	add := func(s string) func() { return func() { got = append(got, s) } }
	e.Post(5, add("before"))
	first := e.Reserve(2)
	e.Post(5, add("after"))
	e.Schedule(1, func() {
		e.PostReserved(5, first+1, add("reserved1"))
		e.PostReserved(5, first, add("reserved0"))
	})
	e.RunUntil(5)
	want := []string{"before", "reserved0", "reserved1", "after"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("posting an unreserved sequence number did not panic")
		}
	}()
	e.PostReserved(10, first+1000, func() {})
}

func TestAfterRelative(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.RunUntil(150)
	if at != 150 {
		t.Fatalf("After fired at %v, want 150", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.RunUntil(10)
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
	e.RunUntil(10)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(20, func() { fired = true })
	e.Schedule(10, func() { e.Cancel(ev) })
	e.RunUntil(20)
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(12)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 5 and 10 only", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %v, want horizon 12", e.Now())
	}
	// Remaining events still fire on resume.
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("resume missed events: %v", fired)
	}
}

func TestStop(t *testing.T) {
	// Canceling the run's context from inside an event, with a poll after
	// every event, halts the run right after that event returns.
	e := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.SetCancelPollInterval(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 3 {
				cancel()
			}
		})
	}
	if err := e.RunUntilCtx(ctx, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 3 {
		t.Fatalf("cancel did not halt promptly: count=%d", count)
	}
	if e.Pending() != 7 || e.Now() != 3 {
		t.Fatalf("pending = %d at %v, want 7 at 3", e.Pending(), e.Now())
	}
}
func TestTicker(t *testing.T) {
	e := NewEngine()
	var ticks []Time
	var cancel func()
	cancel = e.Ticker(10, 5, func(at Time) {
		ticks = append(ticks, at)
		if len(ticks) == 4 {
			cancel()
		}
	})
	e.RunUntil(1000)
	want := []Time{10, 15, 20, 25}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerInvalidPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Ticker(0, 0, func(Time) {})
}

func TestNextHourBoundary(t *testing.T) {
	cases := []struct{ origin, t, want Time }{
		{0, 0, Hour},
		{0, 1, Hour},
		{0, 3599.9, Hour},
		{0, 3600, 2 * Hour},
		{100, 100, 100 + Hour},
		{100, 3699.9, 100 + Hour},
		{100, 3700, 100 + 2*Hour},
		{500, 200, 500 + Hour}, // t before origin
	}
	for _, c := range cases {
		if got := NextHourBoundary(c.origin, c.t); got != c.want {
			t.Errorf("NextHourBoundary(%v,%v) = %v, want %v", c.origin, c.t, got, c.want)
		}
	}
}

func TestNextHourBoundaryProperty(t *testing.T) {
	f := func(o, dt uint16) bool {
		origin := Time(o)
		tt := origin + Time(dt)
		b := NextHourBoundary(origin, tt)
		if b <= tt {
			return false
		}
		// b-origin must be a whole number of hours.
		n := (b - origin) / Hour
		return n == float64(int64(n)) && b-tt <= Hour
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestHeapProperty drives the engine with a large random schedule and checks
// events fire in non-decreasing time order.
func TestHeapProperty(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(99))
	var times []Time
	for i := 0; i < 5000; i++ {
		at := Time(rng.Intn(100000))
		times = append(times, at)
		e.Schedule(at, func() {})
	}
	var fired []Time
	// Wrap: re-register with observers.
	e2 := NewEngine()
	for _, at := range times {
		at := at
		e2.Schedule(at, func() { fired = append(fired, at) })
	}
	e2.RunUntil(100000)
	if !sort.Float64sAreSorted(fired) {
		t.Fatal("events fired out of order")
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
	if e2.Processed() != uint64(len(times)) {
		t.Fatalf("Processed = %d", e2.Processed())
	}
}

func TestDynamicScheduling(t *testing.T) {
	// Events scheduling further events, a chain of 1000.
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 1000 {
			e.After(1, step)
		}
	}
	e.Schedule(0, step)
	e.RunUntil(999)
	if n != 1000 {
		t.Fatalf("chain length = %d", n)
	}
	if e.Now() != 999 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestPostOrderingMatchesSchedule(t *testing.T) {
	// Post and Schedule events at the same instant fire in submission
	// order, regardless of which API scheduled them.
	e := NewEngine()
	var got []int
	e.Post(10, func() { got = append(got, 0) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.PostAfter(10, func() { got = append(got, 2) })
	e.RunUntil(10)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("wrong order: %v", got)
	}
}

func TestPostChainRecyclesEvents(t *testing.T) {
	// A long chain of posted events should recycle structs through the
	// free list rather than growing it without bound.
	e := NewEngine()
	n := 0
	var step func()
	step = func() {
		n++
		if n < 10000 {
			e.PostAfter(1, step)
		}
	}
	e.Post(0, step)
	e.RunUntil(10000)
	if n != 10000 {
		t.Fatalf("chain length = %d", n)
	}
	// Only one pooled event is ever in flight, so the free list should
	// hold no more than the preallocated slab.
	if len(e.free) > freelistSeed {
		t.Fatalf("free list grew to %d (seed %d)", len(e.free), freelistSeed)
	}
}

func TestCancelUnaffectedByRecycling(t *testing.T) {
	// Handles returned by Schedule must stay valid for Cancel even while
	// pooled events are being recycled around them.
	e := NewEngine()
	fired := false
	canceled := false
	ev := e.Schedule(50, func() { canceled = true })
	for i := 0; i < 100; i++ {
		e.Post(Time(i), func() {})
	}
	e.Post(25, func() { e.Cancel(ev) })
	e.Post(60, func() { fired = true })
	e.RunUntil(100)
	if canceled {
		t.Fatal("canceled event fired")
	}
	if !fired {
		t.Fatal("later event did not fire")
	}
}

func TestFreeListGrowsGeometrically(t *testing.T) {
	// A burst of in-flight pooled events far beyond the seed should be
	// served by O(log n) doubling slab refills, not one allocation per
	// event, and the structs all recycle once the burst drains.
	e := NewEngine()
	const burst = 1000
	for i := 0; i < burst; i++ {
		e.Post(Time(i), func() {})
	}
	if e.slabSize < 512 {
		t.Fatalf("slabSize = %d after %d in-flight events, want >= 512", e.slabSize, burst)
	}
	e.RunUntil(burst)
	if len(e.free) < burst {
		t.Fatalf("free list holds %d events after drain, want >= %d", len(e.free), burst)
	}
}

func TestFreeListSlabCap(t *testing.T) {
	// Slab growth is capped so one pathological burst cannot commit
	// unbounded memory in a single refill.
	e := NewEngine()
	for i := 0; i < 5*maxSlabSize; i++ {
		e.Post(Time(i), func() {})
	}
	if e.slabSize != maxSlabSize {
		t.Fatalf("slabSize = %d, want capped at %d", e.slabSize, maxSlabSize)
	}
	e.RunUntil(5 * maxSlabSize)
}

func TestSteadyStateEventLoopZeroAllocs(t *testing.T) {
	// The event machinery underneath the hot loops (price chains, billing,
	// checkpoint daemons — see BenchmarkSchedulerMonth) must not allocate
	// per event once warm: pooled events recycle through the free list and
	// the heap stays at capacity.
	e := NewEngine()
	var fired int
	var step func()
	step = func() {
		fired++
		e.PostAfter(1, step)
	}
	for i := 0; i < 32; i++ {
		e.Post(Time(i), step)
	}
	horizon := Time(1000)
	e.RunUntil(horizon)
	allocs := testing.AllocsPerRun(5, func() {
		horizon += 1000
		e.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Fatalf("steady-state event loop allocated %.2f per window, want 0", allocs)
	}
}
