package sched

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// TestSchedulerStop: a stopped service terminates its servers, freezes its
// report at the stop instant, and accrues nothing afterwards.
func TestSchedulerStop(t *testing.T) {
	set := singleMarketSet(t, []market.Point{{T: 0, Price: 0.01}}, 60*sim.Hour)
	eng := sim.NewEngine()
	rec := trace.NewRecorder(t.Name())
	eng.SetRecorder(rec)
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	s, err := New(prov, mustConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.Schedule(10*sim.Hour, s.Stop)
	eng.RunUntil(60 * sim.Hour)

	if !s.Stopped() || s.Phase() != "stopped" {
		t.Fatalf("phase = %s", s.Phase())
	}
	r := s.Report()
	// Horizon ends at the stop, not the engine's 60 h.
	if r.Horizon > 10*sim.Hour {
		t.Fatalf("horizon = %v, want <= 10 h", r.Horizon)
	}
	// 10 started hours at 0.01 (boot at 240 s): cost frozen at stop time.
	if r.Cost > 0.12 || r.Cost < 0.08 {
		t.Fatalf("cost = %v", r.Cost)
	}
	// Nothing, billing included, is recorded after the stop.
	for _, sp := range rec.Spans() {
		if sp.Start > 10*sim.Hour || sp.End > 10*sim.Hour {
			t.Fatalf("%s span at %v..%v after the stop", sp.Kind, sp.Start, sp.End)
		}
	}
	// All instances are gone.
	if got := prov.Counters().UserTerminating; got == 0 {
		t.Fatal("no instances terminated at stop")
	}
	// Stop is idempotent.
	s.Stop()
}

// TestSchedulerStopDuringMigration: stopping mid-voluntary-migration
// abandons the in-flight destination too.
func TestSchedulerStopDuringMigration(t *testing.T) {
	// Price rises above on-demand at t=10000 so a planned migration is
	// armed near the next billing boundary (~10650); stop right in the
	// middle of it.
	set := singleMarketSet(t, []market.Point{
		{T: 0, Price: 0.01},
		{T: 10000, Price: 0.10},
	}, 60*sim.Hour)
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, fixedCloudParams())
	s, err := New(prov, mustConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	eng.Schedule(10700, s.Stop) // destination requested ~10650, not yet ready
	eng.RunUntil(60 * sim.Hour)

	r := s.Report()
	if r.Migrations.Planned != 0 {
		t.Fatalf("migration completed after stop: %+v", r.Migrations)
	}
	// Nothing is left running: no cost accrues after stop.
	costAtStop := r.Cost
	eng2 := s.Report()
	if eng2.Cost != costAtStop {
		t.Fatal("cost moved after stop")
	}
}

// TestPortfolioElasticity: a surge shard that lives for a window in the
// middle of the run starts late, stops early, and bills only its window.
func TestPortfolioElasticity(t *testing.T) {
	p := NewPortfolio(portfolioUniverse(t), cloud.DefaultParams(9))
	base, err := DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, market.DefaultTypes())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add("steady", base); err != nil {
		t.Fatal(err)
	}
	surge := base
	if err := p.AddAt(2*sim.Day, "surge", surge); err != nil {
		t.Fatal(err)
	}
	if err := p.StopAt(4*sim.Day, "surge"); err != nil {
		t.Fatal(err)
	}
	// Validation.
	if err := p.AddAt(-1, "bad", base); err == nil {
		t.Fatal("negative start accepted")
	}
	if err := p.StopAt(sim.Day, "surge"); err == nil {
		t.Fatal("stop before start accepted")
	}
	if err := p.StopAt(sim.Day, "ghost"); err == nil {
		t.Fatal("unknown service accepted")
	}

	if err := p.Run(8 * sim.Day); err != nil {
		t.Fatal(err)
	}
	steady, _ := p.Report("steady")
	surgeR, _ := p.Report("surge")
	if surgeR.Horizon > 2*sim.Day+sim.Hour {
		t.Fatalf("surge horizon = %v, want ~2 days", surgeR.Horizon)
	}
	if steady.Horizon < 7*sim.Day {
		t.Fatalf("steady horizon = %v", steady.Horizon)
	}
	// The surge's cost is roughly a quarter of the steady service's.
	if surgeR.Cost <= 0 || surgeR.Cost > steady.Cost*0.6 {
		t.Fatalf("surge cost %v vs steady %v", surgeR.Cost, steady.Cost)
	}
}
