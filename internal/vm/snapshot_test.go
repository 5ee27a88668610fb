package vm

import (
	"math"
	"testing"

	"spothost/internal/sim"
)

// TestReplayDaemonMatchesLive verifies that ReplayDaemon reproduces an
// engine-hosted daemon's write sequence and state op-for-op: the same
// writes in the same order with bitwise-equal sizes, and a final state
// equal to the live daemon's Snapshot.
func TestReplayDaemonMatchesLive(t *testing.T) {
	p := DefaultParams()
	// Cutoffs chosen off the write-completion grid so the live run
	// (events at t <= cutoff fire) and the replay (events at t < cutoff
	// fire) agree.
	for _, cutoff := range []sim.Time{10.7, 500.3, 3600.9, 86400.1} {
		eng, d := newDaemon(t, hostedVM)
		var liveWrites []float64
		d.OnWrite(func(mb float64) { liveWrites = append(liveWrites, mb) })
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(cutoff)

		var replayWrites []float64
		st := ReplayDaemon(hostedVM, p, 0, cutoff, func(mb float64) {
			replayWrites = append(replayWrites, mb)
		})

		if len(liveWrites) != len(replayWrites) {
			t.Fatalf("cutoff %v: %d live writes vs %d replayed", cutoff, len(liveWrites), len(replayWrites))
		}
		for i := range liveWrites {
			if liveWrites[i] != replayWrites[i] {
				t.Fatalf("cutoff %v write %d: live %v != replay %v", cutoff, i, liveWrites[i], replayWrites[i])
			}
		}
		if live := d.Snapshot(); live != st {
			t.Fatalf("cutoff %v: live snapshot %+v != replay state %+v", cutoff, live, st)
		}
	}
}

// TestRestoreCheckpointDaemonContinues verifies that a daemon restored
// from a mid-run snapshot finishes the horizon with exactly the same
// writes as the uninterrupted daemon.
func TestRestoreCheckpointDaemonContinues(t *testing.T) {
	p := DefaultParams()
	const cut, horizon = 1000.3, 7200.0

	eng, d := newDaemon(t, hostedVM)
	var fullWrites []float64
	d.OnWrite(func(mb float64) { fullWrites = append(fullWrites, mb) })
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(horizon)

	st := ReplayDaemon(hostedVM, p, 0, cut, nil)
	eng2 := sim.NewEngineAt(cut)
	d2, err := RestoreCheckpointDaemon(eng2, hostedVM, p, st)
	if err != nil {
		t.Fatal(err)
	}
	var tailWrites []float64
	d2.OnWrite(func(mb float64) { tailWrites = append(tailWrites, mb) })
	eng2.RunUntil(horizon)

	var headWrites []float64
	ReplayDaemon(hostedVM, p, 0, cut, func(mb float64) { headWrites = append(headWrites, mb) })
	got := append(headWrites, tailWrites...)
	if len(got) != len(fullWrites) {
		t.Fatalf("%d resumed writes vs %d uninterrupted", len(got), len(fullWrites))
	}
	sum, fullSum := 0.0, 0.0
	for i := range got {
		if got[i] != fullWrites[i] {
			t.Fatalf("write %d: resumed %v != uninterrupted %v", i, got[i], fullWrites[i])
		}
		sum += got[i]
		fullSum += fullWrites[i]
	}
	if math.Abs(sum-fullSum) != 0 {
		t.Fatalf("write totals differ: %v vs %v", sum, fullSum)
	}
	if s1, s2 := d.Snapshot(), d2.Snapshot(); s1 != s2 {
		t.Fatalf("states diverge: uninterrupted %+v vs resumed %+v", s1, s2)
	}
}
