package sim

import (
	"math/rand"
	"testing"
)

// refQueue is the reference the event heap is checked against: a plain
// list scanned for the least (at, seq) live event.
type refQueue struct {
	evs []*refEvent
	seq uint64
}

type refEvent struct {
	at     Time
	seq    uint64
	id     int
	handle bool
	done   bool // fired or canceled
}

func (q *refQueue) add(at Time, id int, handle bool) *refEvent {
	ev := &refEvent{at: at, seq: q.seq, id: id, handle: handle}
	q.seq++
	q.evs = append(q.evs, ev)
	return ev
}

// peek returns the live event that fires next, nil when none is left.
func (q *refQueue) peek() *refEvent {
	var best *refEvent
	for _, ev := range q.evs {
		if ev.done {
			continue
		}
		if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
			best = ev
		}
	}
	return best
}

func (q *refQueue) live() int {
	n := 0
	for _, ev := range q.evs {
		if !ev.done {
			n++
		}
	}
	return n
}

// TestHeapMatchesSortedReference drives the engine and the reference in
// lockstep through random interleavings of Schedule, Post and Cancel —
// timestamps drawn from a handful of values so ties abound, cancellations
// of the root and of interior events both before the run and from inside
// earlier events — and requires every fired event to be the one the
// reference says fires next.
func TestHeapMatchesSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		ref := &refQueue{}
		byID := map[int]*refEvent{}
		handles := map[int]*Event{}
		fired, nextID := 0, 0

		var act func()
		add := func(at Time) {
			id := nextID
			nextID++
			handle := rng.Intn(2) == 0
			byID[id] = ref.add(at, id, handle)
			fn := func() {
				want := ref.peek()
				if want == nil || want.id != id {
					t.Fatalf("seed %d: event %d fired at %v, reference expects %+v", seed, id, e.Now(), want)
				}
				want.done = true
				fired++
				act()
			}
			if handle {
				handles[id] = e.Schedule(at, fn)
			} else {
				e.Post(at, fn)
			}
		}
		cancel := func(id int) {
			if ev := byID[id]; ev.handle {
				ev.done = true
				e.Cancel(handles[id])
			}
			if got, want := e.Pending(), ref.live(); got != want {
				t.Fatalf("seed %d: %d pending after cancel, reference holds %d", seed, got, want)
			}
		}
		cancelRoot := func() {
			if root := ref.peek(); root != nil {
				cancel(root.id)
			}
		}
		act = func() {
			if nextID < 3000 {
				for k := rng.Intn(4); k > 0; k-- {
					add(e.Now() + Time(rng.Intn(4)))
				}
			}
			switch rng.Intn(5) {
			case 0:
				cancelRoot()
			case 1:
				cancel(rng.Intn(nextID))
			}
		}

		for i := 0; i < 200; i++ {
			add(Time(rng.Intn(8)))
		}
		for i := 0; i < 20; i++ {
			cancel(rng.Intn(nextID))
		}
		cancelRoot()
		e.Run()
		if left := ref.live(); left != 0 || e.Pending() != 0 {
			t.Fatalf("seed %d: run ended with %d pending, reference holds %d", seed, e.Pending(), left)
		}
		if fired < 200 {
			t.Fatalf("seed %d: only %d events fired", seed, fired)
		}
	}
}
