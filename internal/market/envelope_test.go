package market

import (
	"fmt"
	"math/rand"
	"testing"

	"spothost/internal/sim"
)

// randomEnvelopeSet builds a set of m random traces (distinct IDs in a
// fixed order) and returns the set plus the ordered candidate IDs.
func randomEnvelopeSet(t *testing.T, rng *rand.Rand, m int) (*Set, []ID) {
	t.Helper()
	traces := make([]*Trace, 0, m)
	od := map[ID]float64{}
	ids := make([]ID, 0, m)
	for i := 0; i < m; i++ {
		id := ID{Region: Region(fmt.Sprintf("r-%da", i)), Type: "small"}
		n := 1 + rng.Intn(60)
		pts := make([]Point, 0, n)
		tm := sim.Time(0)
		for j := 0; j < n; j++ {
			pts = append(pts, Point{T: tm, Price: 0.01 + rng.Float64()})
			tm += sim.Time(1 + rng.Float64()*800)
		}
		tr := mustTrace(t, id, pts, tm+sim.Time(1+rng.Float64()*800))
		traces = append(traces, tr)
		od[id] = 2.0
		ids = append(ids, id)
	}
	s, err := NewSet(traces, od)
	if err != nil {
		t.Fatal(err)
	}
	return s, ids
}

// bruteArgmin is the linear scan the envelope replaces: the first candidate
// (in ids order) whose weighted price is strictly minimal at time t.
func bruteArgmin(s *Set, ids []ID, weights []float64, t sim.Time) (ID, float64, float64) {
	arg, best, bestW := -1, 0.0, 0.0
	for i, id := range ids {
		p := s.Trace(id).PriceAt(t)
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if wp := w * p; arg == -1 || wp < bestW {
			arg, best, bestW = i, p, wp
		}
	}
	return ids[arg], best, bestW
}

// envelopeEnd is the envelope's horizon: the earliest candidate trace end.
func envelopeEnd(s *Set, ids []ID) sim.Time {
	end := s.Trace(ids[0]).End()
	for _, id := range ids[1:] {
		end = min(end, s.Trace(id).End())
	}
	return end
}

func TestEnvelopeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(8)
		s, ids := randomEnvelopeSet(t, rng, m)
		var weights []float64
		if rng.Float64() < 0.5 {
			weights = make([]float64, m)
			for i := range weights {
				weights[i] = 1 + rng.Float64()*5
			}
		}
		env := s.Envelope(ids, weights)
		if env == nil {
			t.Fatal("nil envelope for valid candidates")
		}
		// Unordered queries: every one re-seeks the cursor forward or back.
		cur, end := env.Cursor(), envelopeEnd(s, ids)
		for i := 0; i < 400; i++ {
			q := sim.Time(rng.Float64() * float64(end))
			id, price, weighted := cur.At(q)
			wid, wprice, wweighted := bruteArgmin(s, ids, weights, q)
			if id != wid || price != wprice || weighted != wweighted {
				t.Fatalf("trial %d: At(%v) = (%v,%v,%v), brute force (%v,%v,%v)",
					trial, q, id, price, weighted, wid, wprice, wweighted)
			}
		}
	}
}

func TestEnvelopeCursorMatchesBruteForce(t *testing.T) {
	// The cursor under the scheduler's access pattern: mostly monotone
	// queries with occasional backward re-seeks.
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(8)
		s, ids := randomEnvelopeSet(t, rng, m)
		cur, end := s.Envelope(ids, nil).Cursor(), envelopeEnd(s, ids)
		q := sim.Time(0)
		for i := 0; i < 400; i++ {
			if rng.Float64() < 0.9 {
				q += sim.Time(rng.Float64() * 500)
				if q > end {
					q = end - 1
				}
			} else {
				q = sim.Time(rng.Float64() * float64(end))
			}
			id, price, weighted := cur.At(q)
			wid, wprice, wweighted := bruteArgmin(s, ids, nil, q)
			if id != wid || price != wprice || weighted != wweighted {
				t.Fatalf("trial %d: cursor At(%v) = (%v,%v,%v), brute force (%v,%v,%v)",
					trial, q, id, price, weighted, wid, wprice, wweighted)
			}
		}
	}
}

func TestEnvelopeMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	s, ids := randomEnvelopeSet(t, rng, 4)
	a := s.Envelope(ids, nil)
	b := s.Envelope(ids, nil)
	if a != b {
		t.Fatal("same candidates did not share an envelope")
	}
	c := s.Envelope(ids, []float64{1, 2, 3, 4})
	if c == a {
		t.Fatal("different weights shared an envelope")
	}
	if got := s.Envelope(ids[:2], []float64{1}); got != nil {
		t.Fatal("mismatched weights length did not return nil")
	}
	if got := s.Envelope(nil, nil); got != nil {
		t.Fatal("empty candidates did not return nil")
	}
	unknown := append(append([]ID(nil), ids...), ID{Region: "nope", Type: "small"})
	if got := s.Envelope(unknown, nil); got != nil {
		t.Fatal("unknown candidate did not return nil")
	}
}
