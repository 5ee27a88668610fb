package fleet

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// testSet builds a hand-crafted market universe from piecewise price
// steps per market, all with the given on-demand price.
func testSet(t *testing.T, horizon sim.Time, od float64, prices map[market.ID][]market.Point) *market.Set {
	t.Helper()
	var traces []*market.Trace
	odMap := map[market.ID]float64{}
	for id, pts := range prices {
		tr, err := market.NewTrace(id, pts, horizon)
		if err != nil {
			t.Fatalf("trace %s: %v", id, err)
		}
		traces = append(traces, tr)
		odMap[id] = od
	}
	set, err := market.NewSet(traces, odMap)
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	return set
}

// stepDemand is a piecewise-constant load: Loads[i] holds from Times[i].
type stepDemand struct {
	times []sim.Time
	loads []float64
}

func (d stepDemand) At(t sim.Time) float64 {
	load := d.loads[0]
	for i, at := range d.times {
		if t >= at {
			load = d.loads[i]
		}
	}
	return load
}

func baseConfig(strategy Strategy, demand Demand) Config {
	return Config{
		Strategy:    strategy,
		Demand:      demand,
		Planner:     LinearPlanner{PerReplica: 1},
		Tick:        5 * sim.Minute,
		BidMultiple: 1.5,
		MaxReplicas: 20,
	}
}

func TestControllerScalesWithDemand(t *testing.T) {
	set := testSet(t, 1*sim.Day, 0.06, map[market.ID][]market.Point{
		mid("us-east-1a", "small"): {{T: 0, Price: 0.02}},
	})
	demand := stepDemand{
		times: []sim.Time{0, 6 * sim.Hour, 12 * sim.Hour},
		loads: []float64{2, 6, 2},
	}
	rep, err := Run(set, cloud.DefaultParams(1), baseConfig(LowestPrice{}, demand), 1*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakTarget != 6 {
		t.Fatalf("peak target = %d, want 6", rep.PeakTarget)
	}
	if rep.ScaleDowns < 4 {
		t.Fatalf("scale-downs = %d, want >= 4 (6 -> 2)", rep.ScaleDowns)
	}
	if s := rep.CapacityShortfall(); s < 0 || s > 0.05 {
		t.Fatalf("shortfall = %v, want small (startup lag only)", s)
	}
	if rep.OnDemandFallbacks != 0 || rep.OnDemandSeconds != 0 {
		t.Fatalf("stable cheap spot market should never fall back: %+v", rep)
	}
	if rep.NormalizedCost() >= 1 {
		t.Fatalf("spot fleet cost %v not under baseline %v", rep.Cost, rep.BaselineCost)
	}
}

func TestControllerFallsBackToOnDemand(t *testing.T) {
	// Spot permanently above the bid (1.5 x 0.06 = 0.09 < 0.10): every
	// replica must be an on-demand fallback.
	set := testSet(t, 1*sim.Day, 0.06, map[market.ID][]market.Point{
		mid("us-east-1a", "small"): {{T: 0, Price: 0.10}},
	})
	rep, err := Run(set, cloud.DefaultParams(1), baseConfig(LowestPrice{}, ConstantDemand(3)), 1*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnDemandFallbacks != 3 || rep.SpotLaunches != 0 {
		t.Fatalf("want 3 OD fallbacks, 0 spot; got %d/%d", rep.OnDemandFallbacks, rep.SpotLaunches)
	}
	if rep.SpotSeconds != 0 {
		t.Fatalf("spot seconds = %v, want 0", rep.SpotSeconds)
	}
}

func TestControllerReverseReplacement(t *testing.T) {
	// Spot starts unaffordable, recovers far below the hysteresis
	// threshold at 6h: the controller must drain all three on-demand
	// replicas back onto spot, one per tick.
	set := testSet(t, 1*sim.Day, 0.06, map[market.ID][]market.Point{
		mid("us-east-1a", "small"): {{T: 0, Price: 0.10}, {T: 6 * sim.Hour, Price: 0.02}},
	})
	rep, err := Run(set, cloud.DefaultParams(1), baseConfig(LowestPrice{}, ConstantDemand(3)), 1*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OnDemandFallbacks != 3 {
		t.Fatalf("OD fallbacks = %d, want 3", rep.OnDemandFallbacks)
	}
	if rep.ReverseReplacements != 3 {
		t.Fatalf("reverse replacements = %d, want 3", rep.ReverseReplacements)
	}
	if rep.SpotSeconds == 0 || rep.OnDemandSeconds == 0 {
		t.Fatalf("want both spot (%v) and on-demand (%v) serving time", rep.SpotSeconds, rep.OnDemandSeconds)
	}
	// During the drain the fleet must never go short: the on-demand
	// replica serves until its spot replacement boots.
	if s := rep.CapacityShortfall(); s > 0.01 {
		t.Fatalf("shortfall = %v, want ~0 (make-before-break drain)", s)
	}
}

func TestControllerSurvivesMassRevocation(t *testing.T) {
	// Market A is cheapest, spikes above the bid at 12h for an hour;
	// market B stays affordable. LowestPrice concentrates all replicas in
	// A, loses them simultaneously, and must rebuild in B.
	spike := []market.Point{
		{T: 0, Price: 0.02}, {T: 12 * sim.Hour, Price: 1.0}, {T: 13 * sim.Hour, Price: 0.02},
	}
	set := testSet(t, 1*sim.Day, 0.06, map[market.ID][]market.Point{
		mid("us-east-1a", "small"): spike,
		mid("us-west-1a", "small"): {{T: 0, Price: 0.04}},
	})
	rep, err := Run(set, cloud.DefaultParams(1), baseConfig(LowestPrice{}, ConstantDemand(3)), 1*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasLost != 3 {
		t.Fatalf("replicas lost = %d, want 3", rep.ReplicasLost)
	}
	if got := rep.MaxSimultaneousLoss(); got != 3 {
		t.Fatalf("max simultaneous loss = %d, want 3 (one spike, one grace deadline)", got)
	}
	s := rep.CapacityShortfall()
	if s <= 0 || s > 0.05 {
		t.Fatalf("shortfall = %v, want small but positive (boot gap after revocation)", s)
	}
	if rep.MarketSeconds[mid("us-west-1a", "small")].SpotSeconds == 0 {
		t.Fatal("replacements should have landed in the surviving market")
	}
	if rep.NormalizedCost() >= 1 {
		t.Fatalf("cost %v not under baseline %v", rep.Cost, rep.BaselineCost)
	}
}

func TestRunCtxCancel(t *testing.T) {
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 2 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := baseConfig(Diversified{}, ConstantDemand(4))
	if _, err := RunCtx(ctx, set, cloud.DefaultParams(1), cfg, 2*sim.Day); err == nil {
		t.Fatal("canceled run should fail")
	}
}

func TestRunDeterministic(t *testing.T) {
	mcfg := market.DefaultConfig(7)
	mcfg.Horizon = 3 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(StabilityOptimized{}, ConstantDemand(5))
	a, err := Run(set, cloud.DefaultParams(7), cfg, 3*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(set, cloud.DefaultParams(7), cfg, 3*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 1 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Demand: ConstantDemand(1), Planner: LinearPlanner{1}}, // nil strategy
		{Strategy: LowestPrice{}, Planner: LinearPlanner{1}},   // nil demand
		{Strategy: LowestPrice{}, Demand: ConstantDemand(1)},   // nil planner
		{Strategy: LowestPrice{}, Demand: ConstantDemand(1), Planner: LinearPlanner{1}, // unknown market
			Markets: []market.ID{mid("mars-1a", "small")}},
	}
	for i, cfg := range bad {
		if _, err := Run(set, cloud.DefaultParams(1), cfg, 1*sim.Day); err == nil {
			t.Fatalf("config %d should have been rejected", i)
		}
	}
}

func TestDiurnalDemand(t *testing.T) {
	cfg := DefaultDiurnalConfig(2*sim.Day, 3)
	d, err := NewDiurnalDemand(cfg)
	if err != nil {
		t.Fatal(err)
	}
	off := d.At(3 * sim.Hour) // 03:00, off-peak
	on := d.At(14 * sim.Hour) // 14:00, peak
	if on <= off {
		t.Fatalf("peak load %v not above off-peak %v", on, off)
	}
	if off < cfg.Base*0.5 || off > cfg.Base*1.5 {
		t.Fatalf("off-peak load %v far from base %v", off, cfg.Base)
	}
	if on < cfg.Peak*0.5 || on > cfg.Peak*1.5 {
		t.Fatalf("peak load %v far from peak %v", on, cfg.Peak)
	}
	// Same seed, same curve; different seed, different noise.
	d2, _ := NewDiurnalDemand(cfg)
	if d.At(5*sim.Hour) != d2.At(5*sim.Hour) {
		t.Fatal("same-seed demand curves diverged")
	}
	cfg2 := cfg
	cfg2.Seed = 99
	d3, _ := NewDiurnalDemand(cfg2)
	same := true
	for h := 0; h < 48; h++ {
		if d.At(sim.Time(h)*sim.Hour) != d3.At(sim.Time(h)*sim.Hour) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical noise")
	}
	if _, err := NewDiurnalDemand(DiurnalConfig{Base: -1}); err == nil {
		t.Fatal("invalid demand config should be rejected")
	}
}

// TestTPCWPlannerConcurrent has several goroutines share one planner,
// each sweeping the same loads in its own order, so hits, same-load misses
// and different-load misses overlap. Every answer must match a serial
// planner's; run under -race this also checks the memo's synchronization.
func TestTPCWPlannerConcurrent(t *testing.T) {
	loads := []float64{5, 12, 30, 45, 80}
	serial, err := NewTPCWPlanner(250, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := map[float64]int{}
	for _, l := range loads {
		want[l] = serial.Replicas(l)
	}
	shared, err := NewTPCWPlanner(250, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range loads {
				l := loads[(i+w)%len(loads)]
				if got := shared.Replicas(l); got != want[l] {
					t.Errorf("worker %d: %d replicas @%v EBs, serial planner says %d", w, got, l, want[l])
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestTPCWPlannerMonotoneAndMemoized(t *testing.T) {
	p, err := NewTPCWPlanner(250, 32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo := p.Replicas(10)
	hi := p.Replicas(80)
	if lo < 1 || hi < lo {
		t.Fatalf("planner not monotone: %d replicas @10 EBs, %d @80", lo, hi)
	}
	if again := p.Replicas(80); again != hi {
		t.Fatalf("memoized lookup diverged: %d vs %d", again, hi)
	}
}
