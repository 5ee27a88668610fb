package vm

import (
	"fmt"

	"spothost/internal/sim"
)

// DaemonEventKind names the daemon's next cycle step. The daemon has at
// most one step pending at a time, so its whole schedule is a kind and a
// time.
type DaemonEventKind int

const (
	// DaemonIdle means no step is pending (stopped, never started, or a
	// zero dirty rate left nothing to checkpoint).
	DaemonIdle DaemonEventKind = iota
	// DaemonFullDone completes the initial full checkpoint.
	DaemonFullDone
	// DaemonIncrStart begins the next incremental write.
	DaemonIncrStart
	// DaemonIncrDone completes the in-flight incremental write.
	DaemonIncrDone
)

// DaemonState is the checkpoint daemon's write-cycle state machine: its
// write clocks, counters and the one pending step. The live daemon and
// ReplayDaemon both advance it, so there is a single definition of the
// write schedule, and a copy is a complete snapshot:
// RestoreCheckpointDaemon rebuilds a live daemon that continues the exact
// same write schedule on a fresh engine.
type DaemonState struct {
	LastStart       sim.Time
	Writing         bool
	PendingMB       float64
	FullCheckpoints int
	Incrementals    int
	BytesWrittenMB  float64
	Next            DaemonEventKind
	NextAt          sim.Time
}

// startState is the state of a daemon Started at start: the initial full
// checkpoint in flight.
func startState(spec Spec, p Params, start sim.Time) DaemonState {
	return DaemonState{
		LastStart: start,
		Writing:   true,
		Next:      DaemonFullDone,
		NextAt:    start + spec.MemoryMB()/p.CheckpointWriteMBps,
	}
}

// advance executes the pending steps due before limit — or at limit too
// when inclusive — in order, passing every completed write's size to wrote
// (which may be nil) after adding it to BytesWrittenMB.
func (st *DaemonState) advance(spec Spec, p Params, limit sim.Time, inclusive bool, wrote func(mb float64)) {
	for st.Next != DaemonIdle && (st.NextAt < limit || (inclusive && st.NextAt == limit)) {
		now := st.NextAt
		var mb float64
		switch st.Next {
		case DaemonFullDone:
			st.FullCheckpoints++
			mb = spec.MemoryMB()
		case DaemonIncrStart:
			dirty := spec.DirtyRateMBps * (now - st.LastStart)
			if max := spec.MemoryMB(); dirty > max {
				dirty = max
			}
			st.Writing = true
			st.LastStart = now // pages dirtied from now on belong to the next increment
			st.PendingMB = dirty
			st.Next = DaemonIncrDone
			st.NextAt = now + dirty/p.CheckpointWriteMBps
			continue
		case DaemonIncrDone:
			st.Incrementals++
			mb = st.PendingMB
		}
		// A write completed: account it and arm the next increment one
		// Yank interval after the current one began accumulating (pages
		// dirtied during the write are its backlog).
		st.Writing = false
		st.BytesWrittenMB += mb
		if wrote != nil {
			wrote(mb)
		}
		interval := p.CheckpointInterval(spec)
		if interval <= 0 {
			// Nothing dirties memory: no periodic work (exposure stays 0).
			st.Next, st.NextAt = DaemonIdle, 0
			continue
		}
		target := st.LastStart + interval
		if target <= now {
			target = now // backlog: start the next increment at once
		}
		st.Next, st.NextAt = DaemonIncrStart, target
	}
}

// Snapshot captures the daemon's state, caught up to the engine clock
// inclusive, so its pending step lies strictly in the future.
func (d *CheckpointDaemon) Snapshot() DaemonState {
	d.Settle()
	return d.st
}

// ReplayDaemon reproduces, without an engine, the write schedule of a
// daemon Started at start and Stopped at cutoff: the steps due strictly
// before cutoff, with the live daemon's float operations (it is the same
// state machine). Callers that sum the onWrite amounts in order obtain
// bit-identical accumulators to a run that hosted the real daemon. It
// returns the daemon's state at cutoff, suitable for
// RestoreCheckpointDaemon.
func ReplayDaemon(spec Spec, p Params, start, cutoff sim.Time, onWrite func(mb float64)) DaemonState {
	st := startState(spec, p, start)
	st.advance(spec, p, cutoff, false, onWrite)
	return st
}

// RestoreCheckpointDaemon rebuilds a running daemon from a snapshot on a
// fresh engine whose clock is at or before the snapshot's pending step. It
// sets the daemon's state and registers it with the engine; nothing is
// posted.
func RestoreCheckpointDaemon(eng *sim.Engine, spec Spec, p Params, st DaemonState) (*CheckpointDaemon, error) {
	if st.Next < DaemonIdle || st.Next > DaemonIncrDone {
		return nil, fmt.Errorf("vm: unknown daemon event kind %d", st.Next)
	}
	d, err := NewCheckpointDaemon(eng, spec, p)
	if err != nil {
		return nil, err
	}
	if now := eng.Now(); st.Next != DaemonIdle && st.NextAt < now {
		st.NextAt = now // the backlog clamp: the step runs at once
	}
	d.st = st
	d.running = true
	eng.Register(d)
	return d, nil
}
