package vm

import (
	"fmt"

	"spothost/internal/sim"
)

// CheckpointDaemon is the Yank-style background checkpointer. It
// periodically writes the memory dirtied since the previous checkpoint to
// the network volume, pacing itself so that at any instant the
// not-yet-persisted ("exposed") state can be written out within the
// configured bound — which is what lets a forced migration always complete
// its final save inside the revocation grace window.
//
// The daemon posts no engine events. Its write cycle (full checkpoint
// done → increment start → increment done → …) is the DaemonState state
// machine, advanced on demand: every observer first catches it up to the
// engine clock inclusive, Stop catches it up to just before the clock
// (the rule ReplayDaemon applies at a cutoff), and the engine settles it
// (sim.Lazy) when a run returns, so OnWrite observers have seen every
// write by the time the run yields.
//
// The analytic models in timeline.go assume this daemon exists; the daemon
// makes the assumption checkable: tests drive it through simulated time
// and verify the exposure bound and the I/O it consumes.
type CheckpointDaemon struct {
	eng  *sim.Engine
	spec Spec
	p    Params

	running bool
	stopped bool
	st      DaemonState

	onWrite func(mb float64) // optional observer for I/O accounting
	wrote   func(mb float64) // d.record, bound once for the cycle steps
}

// NewCheckpointDaemon creates a daemon for one VM. Call Start to begin the
// initial full checkpoint.
func NewCheckpointDaemon(eng *sim.Engine, spec Spec, p Params) (*CheckpointDaemon, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if p.CheckpointBound <= 0 {
		return nil, fmt.Errorf("vm: checkpoint bound must be positive, got %v", p.CheckpointBound)
	}
	d := &CheckpointDaemon{eng: eng, spec: spec, p: p}
	d.wrote = d.record
	return d, nil
}

// OnWrite registers an observer invoked with the size (MB) of every
// checkpoint write the daemon issues; use it to charge volume I/O.
func (d *CheckpointDaemon) OnWrite(fn func(mb float64)) { d.onWrite = fn }

// Start writes the initial full checkpoint and then begins the periodic
// incremental cycle. Starting an already-started or stopped daemon is an
// error.
func (d *CheckpointDaemon) Start() error {
	if d.running {
		return fmt.Errorf("vm: checkpoint daemon already running")
	}
	if d.stopped {
		return fmt.Errorf("vm: checkpoint daemon already stopped")
	}
	d.st = startState(d.spec, d.p, d.eng.Now())
	d.running = true
	d.eng.Register(d)
	return nil
}

// record accounts one completed write (the cycle has already added it to
// BytesWrittenMB).
func (d *CheckpointDaemon) record(mb float64) {
	// The write occupied the volume for mb/rate seconds; feed the run's
	// checkpoint-duration histogram (no-op without a recorder attached).
	d.eng.Recorder().ObserveCheckpoint(mb / d.p.CheckpointWriteMBps)
	if d.onWrite != nil {
		d.onWrite(mb)
	}
}

// Settle executes every cycle step due at or before the engine clock. The
// engine calls it when a run returns; observers call it implicitly.
func (d *CheckpointDaemon) Settle() {
	if d.running {
		d.st.advance(d.spec, d.p, d.eng.Now(), true, d.wrote)
	}
}

// ExposureMB returns the amount of memory state that would be lost if the
// VM vanished right now without a final save: everything dirtied since the
// start of the last completed-or-in-flight checkpoint interval.
func (d *CheckpointDaemon) ExposureMB() float64 {
	if !d.running {
		return d.spec.MemoryMB()
	}
	d.Settle()
	mb := d.spec.DirtyRateMBps * (d.eng.Now() - d.st.LastStart)
	if max := d.spec.MemoryMB(); mb > max {
		mb = max
	}
	return mb
}

// FinalSaveTime returns how long a final incremental save would take if
// initiated now — the quantity the Yank bound promises stays within
// CheckpointBound (plus one in-flight write that must drain first).
func (d *CheckpointDaemon) FinalSaveTime() sim.Duration {
	t := d.ExposureMB() / d.p.CheckpointWriteMBps
	if d.st.Writing {
		// An in-flight write occupies the volume; the worst case is one
		// full bound's worth of backlog ahead of the final save.
		t += float64(d.p.CheckpointBound)
	}
	return t
}

// Stop halts the daemon (the VM suspended or migrated away), completing
// the steps due strictly before the engine clock, and ends its engine
// registration. Idempotent.
func (d *CheckpointDaemon) Stop() {
	if d.running {
		d.st.advance(d.spec, d.p, d.eng.Now(), false, d.wrote)
		d.eng.Unregister(d)
	}
	d.st.Next, d.st.NextAt = DaemonIdle, 0
	d.stopped = true
	d.running = false
}
