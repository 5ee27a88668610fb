package sched

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// TestCheckpointIOAccounting: the background Yank daemon's writes are
// charged while the service sits on spot servers; baselines and naive
// hosting write nothing.
func TestCheckpointIOAccounting(t *testing.T) {
	set := singleMarketSet(t, []market.Point{{T: 0, Price: 0.01}}, 48*sim.Hour)

	cfg := mustConfig(t)
	r := runScenario(t, set, cfg, 48*sim.Hour)
	if r.CheckpointGB <= 0 {
		t.Fatalf("spot-hosted service wrote no checkpoints: %v", r.CheckpointGB)
	}
	// Rough volume check: initial full image + dirty rate x horizon.
	spec := cfg.Service.VM
	expected := (spec.MemoryGB*1024 + spec.DirtyRateMBps*48*sim.Hour) / 1024
	if r.CheckpointGB < expected*0.7 || r.CheckpointGB > expected*1.1 {
		t.Fatalf("checkpoint volume %.1f GB, expected ~%.1f GB", r.CheckpointGB, expected)
	}

	odCfg := mustConfig(t)
	odCfg.Bidding = OnDemandOnly
	if r := runScenario(t, set, odCfg, 48*sim.Hour); r.CheckpointGB != 0 {
		t.Fatalf("on-demand-only wrote checkpoints: %v", r.CheckpointGB)
	}

	naiveCfg := mustConfig(t)
	naiveCfg.Mechanism = vm.Naive
	if r := runScenario(t, set, naiveCfg, 48*sim.Hour); r.CheckpointGB != 0 {
		t.Fatalf("naive mechanism wrote checkpoints: %v", r.CheckpointGB)
	}
}

// TestCheckpointDaemonStopsOnOnDemand: after a forced migration to
// on-demand the daemon pauses; after the reverse migration back to spot it
// resumes.
func TestCheckpointDaemonStopsOnOnDemand(t *testing.T) {
	// Spike forces the service onto on-demand from ~10000 to ~20000+.
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.30},
		{T: 20000, Price: 0.01},
	}, 48*sim.Hour)
	cfg := mustConfig(t)
	full := runScenario(t, set, cfg, 48*sim.Hour)

	flat := singleMarketSet(t, []market.Point{{T: 0, Price: 0.01}}, 48*sim.Hour)
	uninterrupted := runScenario(t, flat, cfg, 48*sim.Hour)

	// The run with an on-demand interlude must write less than the
	// uninterrupted spot run.
	if full.CheckpointGB >= uninterrupted.CheckpointGB {
		t.Fatalf("daemon did not pause on on-demand: %.2f GB vs %.2f GB",
			full.CheckpointGB, uninterrupted.CheckpointGB)
	}
	if full.CheckpointGB <= 0 {
		t.Fatal("daemon never ran")
	}
}

// TestStoppedDaemonsLeaveNoRegistration: the scheduler starts one daemon
// per spot placement, and each daemon's engine registration (sim.Lazy)
// must end when the placement does. Over a run that flips between spot
// and on-demand many times, the engine holds exactly the active daemon,
// and nothing once the service stops.
func TestStoppedDaemonsLeaveNoRegistration(t *testing.T) {
	const horizon = 4 * sim.Day
	var pts []market.Point
	for at := sim.Time(0); at+2.5*sim.Hour < horizon; at += 5 * sim.Hour {
		pts = append(pts, market.Point{T: at, Price: 0.01}, market.Point{T: at + 2.5*sim.Hour, Price: 0.30})
	}
	set := singleMarketSet(t, pts, horizon)
	eng := sim.NewEngine()
	s, err := New(cloud.NewProvider(eng, set, fixedCloudParams()), mustConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for at := sim.Time(0); at < horizon; at += 7 * sim.Minute {
		eng.RunUntil(at)
		want := 0
		if s.ckptDaemon != nil {
			want = 1
		}
		if got := eng.Registered(); got != want {
			t.Fatalf("t=%v: %d engine registrations, %d active daemons", at, got, want)
		}
	}
	if len(s.daemonEpochs) < 10 {
		t.Fatalf("only %d daemon epochs: the script did not flip placements", len(s.daemonEpochs))
	}
	s.Stop()
	if got := eng.Registered(); got != 0 {
		t.Fatalf("%d engine registrations after Stop", got)
	}
}
