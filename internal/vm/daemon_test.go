package vm

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"spothost/internal/sim"
)

func newDaemon(t *testing.T, spec Spec) (*sim.Engine, *CheckpointDaemon) {
	t.Helper()
	eng := sim.NewEngine()
	d, err := NewCheckpointDaemon(eng, spec, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return eng, d
}

func TestDaemonValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := NewCheckpointDaemon(eng, Spec{}, DefaultParams()); err == nil {
		t.Fatal("invalid spec accepted")
	}
	p := DefaultParams()
	p.CheckpointBound = 0
	if _, err := NewCheckpointDaemon(eng, hostedVM, p); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestDaemonLifecycleErrors(t *testing.T) {
	_, d := newDaemon(t, hostedVM)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	d.Stop()
	d.Stop() // idempotent
	if err := d.Start(); err == nil {
		t.Fatal("start after stop accepted")
	}
}

// TestDaemonBoundHolds drives the daemon through hours of virtual time and
// checks the Yank invariant at random instants: the final save always
// completes within ~2x the bound (one in-flight write plus the exposed
// increment).
func TestDaemonBoundHolds(t *testing.T) {
	eng, d := newDaemon(t, hostedVM)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	full := hostedVM.MemoryMB() / p.CheckpointWriteMBps
	bound := float64(p.CheckpointBound)

	violations := 0
	checks := 0
	// Sample after the initial full checkpoint has completed.
	for i := 0; i < 500; i++ {
		at := full + 1 + float64(i)*37.3
		eng.Schedule(at, func() {
			checks++
			if d.FinalSaveTime() > 2*bound+1e-9 {
				violations++
			}
		})
	}
	eng.RunUntil(6 * sim.Hour)
	if checks != 500 {
		t.Fatalf("only %d checks ran", checks)
	}
	if violations > 0 {
		t.Fatalf("Yank bound violated at %d/%d instants", violations, checks)
	}
	st := d.Snapshot()
	if st.FullCheckpoints != 1 {
		t.Fatalf("full checkpoints = %d", st.FullCheckpoints)
	}
	if st.Incrementals < 100 {
		t.Fatalf("too few incrementals: %d", st.Incrementals)
	}
}

// TestDaemonWriteVolume: total bytes written over a window approximate the
// dirty rate (the daemon only writes what was dirtied, plus the initial
// full image).
func TestDaemonWriteVolume(t *testing.T) {
	eng, d := newDaemon(t, hostedVM)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	horizon := 4 * sim.Hour
	eng.RunUntil(horizon)
	st := d.Snapshot()
	expected := hostedVM.MemoryMB() + hostedVM.DirtyRateMBps*horizon
	if st.BytesWrittenMB < expected*0.8 || st.BytesWrittenMB > expected*1.05 {
		t.Fatalf("bytes written %.0f MB, expected ~%.0f MB", st.BytesWrittenMB, expected)
	}
}

func TestDaemonObserver(t *testing.T) {
	eng, d := newDaemon(t, hostedVM)
	var total float64
	d.OnWrite(func(mb float64) { total += mb })
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(2 * sim.Hour)
	if math.Abs(total-d.Snapshot().BytesWrittenMB) > 1e-9 {
		t.Fatalf("observer saw %.1f MB, stats say %.1f MB", total, d.Snapshot().BytesWrittenMB)
	}
	if total <= hostedVM.MemoryMB() {
		t.Fatalf("observer missed incrementals: %.1f", total)
	}
}

func TestDaemonExposureBeforeStart(t *testing.T) {
	_, d := newDaemon(t, hostedVM)
	// Before the daemon runs, everything is exposed.
	if got := d.ExposureMB(); got != hostedVM.MemoryMB() {
		t.Fatalf("pre-start exposure = %v, want full memory", got)
	}
}

func TestDaemonIdleVM(t *testing.T) {
	idle := Spec{MemoryGB: 2, DirtyRateMBps: 0, Units: 1}
	eng, d := newDaemon(t, idle)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(3 * sim.Hour)
	st := d.Snapshot()
	if st.FullCheckpoints != 1 || st.Incrementals != 0 {
		t.Fatalf("idle VM should checkpoint once: %+v", st)
	}
	if d.ExposureMB() != 0 {
		t.Fatalf("idle exposure = %v", d.ExposureMB())
	}
	if d.FinalSaveTime() != 0 {
		t.Fatalf("idle final save = %v", d.FinalSaveTime())
	}
}

func TestDaemonStopHaltsWrites(t *testing.T) {
	eng, d := newDaemon(t, hostedVM)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Hour)
	d.Stop()
	before := d.Snapshot().BytesWrittenMB
	eng.RunUntil(3 * sim.Hour)
	if d.Snapshot().BytesWrittenMB != before {
		t.Fatal("daemon kept writing after Stop")
	}
	// A stopped daemon protects nothing.
	if d.ExposureMB() != hostedVM.MemoryMB() {
		t.Fatalf("stopped exposure = %v", d.ExposureMB())
	}
}

// TestDaemonIntervalMatchesAnalyticModel: the event-driven daemon's cycle
// matches Params.CheckpointInterval.
func TestDaemonIntervalMatchesAnalyticModel(t *testing.T) {
	p := DefaultParams()
	interval := p.CheckpointInterval(hostedVM)
	eng, d := newDaemon(t, hostedVM)
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	horizon := 5 * sim.Hour
	eng.RunUntil(horizon)
	st := d.Snapshot()
	// After the initial full write, increments recur every interval (the
	// write itself overlaps the next interval's accumulation).
	expected := (horizon - hostedVM.MemoryMB()/p.CheckpointWriteMBps) / interval
	if float64(st.Incrementals) < expected*0.9 || float64(st.Incrementals) > expected*1.1 {
		t.Fatalf("incrementals = %d, expected ~%.0f", st.Incrementals, expected)
	}
}

// eventDaemon is the reference model for CheckpointDaemon: the
// event-driven daemon it replaced, which posts one engine event per cycle
// step. The oracle test below requires the lazily advanced daemon to
// match it bit for bit.
type eventDaemon struct {
	eng  *sim.Engine
	spec Spec
	p    Params

	running   bool
	stopped   bool
	lastStart sim.Time
	writing   bool

	fullCheckpoints int
	incrementals    int
	bytesWrittenMB  float64
	pendingMB       float64

	onWrite func(mb float64)
}

func newEventDaemon(eng *sim.Engine, spec Spec, p Params) *eventDaemon {
	return &eventDaemon{eng: eng, spec: spec, p: p}
}

func (d *eventDaemon) OnWrite(fn func(mb float64)) { d.onWrite = fn }

func (d *eventDaemon) Start() error {
	if d.running {
		return fmt.Errorf("vm: checkpoint daemon already running")
	}
	if d.stopped {
		return fmt.Errorf("vm: checkpoint daemon already stopped")
	}
	d.running = true
	d.writing = true
	d.lastStart = d.eng.Now()
	d.eng.PostAfter(d.spec.MemoryMB()/d.p.CheckpointWriteMBps, d.fullDone)
	return nil
}

func (d *eventDaemon) fullDone() {
	if d.stopped {
		return
	}
	d.writing = false
	d.fullCheckpoints++
	d.record(d.spec.MemoryMB())
	d.scheduleNext()
}

func (d *eventDaemon) incrDone() {
	if d.stopped {
		return
	}
	d.writing = false
	d.incrementals++
	d.record(d.pendingMB)
	d.scheduleNext()
}

func (d *eventDaemon) scheduleNext() {
	interval := d.p.CheckpointInterval(d.spec)
	if interval <= 0 {
		return
	}
	target := d.lastStart + interval
	if now := d.eng.Now(); target <= now {
		target = now
	}
	d.eng.Post(target, d.writeIncrement)
}

func (d *eventDaemon) writeIncrement() {
	if d.stopped || !d.running {
		return
	}
	now := d.eng.Now()
	dirtyMB := d.spec.DirtyRateMBps * (now - d.lastStart)
	if max := d.spec.MemoryMB(); dirtyMB > max {
		dirtyMB = max
	}
	d.writing = true
	d.lastStart = now
	d.pendingMB = dirtyMB
	d.eng.PostAfter(dirtyMB/d.p.CheckpointWriteMBps, d.incrDone)
}

func (d *eventDaemon) record(mb float64) {
	d.bytesWrittenMB += mb
	if d.onWrite != nil {
		d.onWrite(mb)
	}
}

func (d *eventDaemon) ExposureMB() float64 {
	if !d.running || d.stopped {
		return d.spec.MemoryMB()
	}
	mb := d.spec.DirtyRateMBps * (d.eng.Now() - d.lastStart)
	if max := d.spec.MemoryMB(); mb > max {
		mb = max
	}
	return mb
}

func (d *eventDaemon) FinalSaveTime() sim.Duration {
	t := d.ExposureMB() / d.p.CheckpointWriteMBps
	if d.writing {
		t += float64(d.p.CheckpointBound)
	}
	return t
}

func (d *eventDaemon) Stop() {
	d.stopped = true
	d.running = false
}

// Snapshot reconstructs the one pending event from the write clocks with
// the arithmetic that armed it.
func (d *eventDaemon) Snapshot() DaemonState {
	st := DaemonState{
		LastStart:       d.lastStart,
		Writing:         d.writing,
		PendingMB:       d.pendingMB,
		FullCheckpoints: d.fullCheckpoints,
		Incrementals:    d.incrementals,
		BytesWrittenMB:  d.bytesWrittenMB,
	}
	switch {
	case !d.running || d.stopped:
		st.Next = DaemonIdle
	case d.writing && d.fullCheckpoints == 0:
		st.Next = DaemonFullDone
		st.NextAt = d.lastStart + d.spec.MemoryMB()/d.p.CheckpointWriteMBps
	case d.writing:
		st.Next = DaemonIncrDone
		st.NextAt = d.lastStart + d.pendingMB/d.p.CheckpointWriteMBps
	default:
		if interval := d.p.CheckpointInterval(d.spec); interval > 0 {
			st.Next = DaemonIncrStart
			st.NextAt = d.lastStart + interval
		}
	}
	return st
}

func restoreEventDaemon(eng *sim.Engine, spec Spec, p Params, st DaemonState) *eventDaemon {
	d := newEventDaemon(eng, spec, p)
	d.running = true
	d.lastStart = st.LastStart
	d.writing = st.Writing
	d.pendingMB = st.PendingMB
	d.fullCheckpoints = st.FullCheckpoints
	d.incrementals = st.Incrementals
	d.bytesWrittenMB = st.BytesWrittenMB
	at := st.NextAt
	if now := eng.Now(); at < now {
		at = now
	}
	switch st.Next {
	case DaemonFullDone:
		eng.Schedule(at, d.fullDone)
	case DaemonIncrStart:
		eng.Schedule(at, d.writeIncrement)
	case DaemonIncrDone:
		eng.Schedule(at, d.incrDone)
	}
	return d
}

// daemonModel is the surface the oracle test drives on both daemons.
type daemonModel interface {
	OnWrite(fn func(mb float64))
	Start() error
	Stop()
	Snapshot() DaemonState
	ExposureMB() float64
	FinalSaveTime() sim.Duration
}

type daemonImpl struct {
	create  func(eng *sim.Engine, spec Spec, p Params) daemonModel
	restore func(eng *sim.Engine, spec Spec, p Params, st DaemonState) daemonModel
}

var (
	eventImpl = daemonImpl{
		create: func(eng *sim.Engine, spec Spec, p Params) daemonModel { return newEventDaemon(eng, spec, p) },
		restore: func(eng *sim.Engine, spec Spec, p Params, st DaemonState) daemonModel {
			return restoreEventDaemon(eng, spec, p, st)
		},
	}
	lazyImpl = daemonImpl{
		create: func(eng *sim.Engine, spec Spec, p Params) daemonModel {
			d, err := NewCheckpointDaemon(eng, spec, p)
			if err != nil {
				panic(err)
			}
			return d
		},
		restore: func(eng *sim.Engine, spec Spec, p Params, st DaemonState) daemonModel {
			d, err := RestoreCheckpointDaemon(eng, spec, p, st)
			if err != nil {
				panic(err)
			}
			return d
		},
	}
)

type daemonOpKind int

const (
	daemonOpStart daemonOpKind = iota
	daemonOpObserve
	daemonOpStop
	daemonOpRestore
)

// daemonOp is one step of an oracle schedule. An op inEvent runs from
// inside an engine event at its instant; otherwise the driver runs the
// engine up to the instant and acts between runs. A restore always acts
// between runs: it snapshots the running daemon and continues on a fresh
// engine restored from the snapshot.
type daemonOp struct {
	at      sim.Time
	kind    daemonOpKind
	inEvent bool
}

// driveDaemon plays ops (sorted by time) against impl up to horizon. It
// returns every write and the log of observations, floats printed
// exactly; each observation also records how many writes the observer
// had seen, since observing catches the daemon up.
func driveDaemon(impl daemonImpl, spec Spec, p Params, ops []daemonOp, horizon sim.Time) (writes []float64, log []string) {
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d writes, ", len(writes))+fmt.Sprintf(format, args...))
	}
	onWrite := func(mb float64) { writes = append(writes, mb) }
	eng := sim.NewEngine()
	var cur daemonModel
	do := func(op daemonOp) {
		switch op.kind {
		case daemonOpStart:
			if cur != nil {
				if err := cur.Start(); err == nil {
					log = append(log, "restarted a running daemon")
				}
				return
			}
			cur = impl.create(eng, spec, p)
			cur.OnWrite(onWrite)
			logf("start %v", cur.Start())
		case daemonOpStop:
			if cur != nil {
				cur.Stop()
				logf("stop %+v", cur.Snapshot())
				cur = nil // the next start opens a new epoch
			}
		case daemonOpObserve:
			if cur != nil {
				logf("observe %v %v %+v", cur.ExposureMB(), cur.FinalSaveTime(), cur.Snapshot())
			}
		}
	}
	// arm schedules the in-event ops from index i up to the next restore.
	arm := func(i int) {
		for ; i < len(ops) && ops[i].kind != daemonOpRestore; i++ {
			if op := ops[i]; op.inEvent {
				eng.Schedule(op.at, func() { do(op) })
			}
		}
	}
	arm(0)
	for i, op := range ops {
		if op.inEvent {
			continue
		}
		eng.RunUntil(op.at)
		if op.kind != daemonOpRestore {
			do(op)
			continue
		}
		eng = sim.NewEngineAt(op.at)
		if cur != nil {
			st := cur.Snapshot()
			logf("restore %+v", st)
			cur = impl.restore(eng, spec, p, st)
			cur.OnWrite(onWrite)
		}
		arm(i + 1)
	}
	eng.RunUntil(horizon)
	if cur != nil {
		logf("end %+v", cur.Snapshot())
	}
	return writes, log
}

// randomDaemonOps draws a schedule over [0, horizon): off-grid instants,
// several start/stop epochs, observations and mid-run restores.
func randomDaemonOps(rng *rand.Rand, horizon sim.Time) []daemonOp {
	ops := []daemonOp{{at: rng.Float64() * horizon / 20, kind: daemonOpStart}}
	for n := 5 + rng.Intn(40); n > 0; n-- {
		op := daemonOp{at: rng.Float64() * horizon, inEvent: rng.Intn(2) == 0}
		switch r := rng.Intn(20); {
		case r < 6:
			op.kind = daemonOpStart
		case r < 10:
			op.kind = daemonOpStop
		case r < 17:
			op.kind = daemonOpObserve
		default:
			op.kind, op.inEvent = daemonOpRestore, false
		}
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops
}

// TestDaemonMatchesEventModel is the daemon's oracle: over random
// start/observe/stop/restore schedules the lazily advanced daemon issues
// bit-identical write sequences and reports bit-identical Stats, Snapshot,
// ExposureMB and FinalSaveTime to the event-driven reference model. The
// specs cover the steady cycle, the backlog clamp and memory cap (dirty
// rate above the write rate), and an idle VM.
func TestDaemonMatchesEventModel(t *testing.T) {
	specs := []Spec{
		hostedVM,
		{MemoryGB: 1, DirtyRateMBps: 60, Units: 1},
		{MemoryGB: 2, Units: 1},
	}
	rng := rand.New(rand.NewSource(7))
	writes, restores := 0, 0
	for c := 0; c < 90; c++ {
		spec := specs[c%len(specs)]
		p := DefaultParams()
		p.CheckpointBound = sim.Duration(1 + rng.Intn(60))
		horizon := sim.Hour + rng.Float64()*sim.Day
		ops := randomDaemonOps(rng, horizon)
		wantW, want := driveDaemon(eventImpl, spec, p, ops, horizon)
		gotW, got := driveDaemon(lazyImpl, spec, p, ops, horizon)
		where := fmt.Sprintf("case %d (%+v, bound %v)", c, spec, p.CheckpointBound)
		if len(gotW) != len(wantW) {
			t.Fatalf("%s: %d writes, event model %d", where, len(gotW), len(wantW))
		}
		for i := range wantW {
			if gotW[i] != wantW[i] {
				t.Fatalf("%s: write %d is %v, event model %v", where, i, gotW[i], wantW[i])
			}
		}
		for i := 0; i < len(want) || i < len(got); i++ {
			if i >= len(want) || i >= len(got) || got[i] != want[i] {
				w, g := "<end>", "<end>"
				if i < len(want) {
					w = want[i]
				}
				if i < len(got) {
					g = got[i]
				}
				t.Fatalf("%s: observation %d differs\n lazy:  %s\n event: %s", where, i, g, w)
			}
		}
		writes += len(wantW)
		for _, line := range want {
			if strings.Contains(line, "restore") {
				restores++
			}
		}
	}
	if writes < 1000 || restores < 20 {
		t.Fatalf("schedules too thin: %d writes, %d restores", writes, restores)
	}
}
