// Steady-state allocation discipline for the hot event loop: once a run is
// warm, the recurring events (market price changes across the whole
// universe, hourly billing) must not allocate — the free list, persistent
// closures, and scratch buffers absorb all of it. This is the loop under
// BenchmarkSchedulerMonth; the pure-engine counterpart lives in
// internal/sim (TestSteadyStateEventLoopZeroAllocs).
package spothost

import (
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

func TestSteadyStateRunLoopAllocs(t *testing.T) {
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 40 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, cloud.DefaultParams(1))
	home := market.ID{Region: "us-east-1a", Type: "small"}
	if _, err := prov.RequestOnDemand(home, cloud.Callbacks{}); err != nil {
		t.Fatal(err)
	}
	// Warm up past the point where the event heap, free list, and billing
	// ledger have reached capacity.
	horizon := sim.Time(30 * sim.Day)
	eng.RunUntil(horizon)
	allocs := testing.AllocsPerRun(5, func() {
		horizon += sim.Day
		eng.RunUntil(horizon)
	})
	// A day of the warm loop fires thousands of price-change and billing
	// events. The only allocation permitted is the amortized growth of the
	// billing ledger's entry slice, which shows up as less than one
	// allocation per day-long window on average.
	if allocs >= 1 {
		t.Fatalf("steady-state run loop allocated %.2f per simulated day, want < 1", allocs)
	}
}

// TestSteadyStateWatchedLoopAllocs is the same bound with every market's
// price chain live: the provider arms a chain only for watched markets,
// so this watches the whole universe and subscribes to one market to keep
// the price-change path in the measured loop.
func TestSteadyStateWatchedLoopAllocs(t *testing.T) {
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 40 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	prov := cloud.NewProvider(eng, set, cloud.DefaultParams(1))
	prov.Watch(set.IDs()...)
	home := market.ID{Region: "us-east-1a", Type: "small"}
	changes := 0
	prov.SubscribePrice(home, func(sim.Time, float64) { changes++ })
	if _, err := prov.RequestOnDemand(home, cloud.Callbacks{}); err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(30 * sim.Day)
	eng.RunUntil(horizon)
	before, seen := eng.Processed(), changes
	allocs := testing.AllocsPerRun(5, func() {
		horizon += sim.Day
		eng.RunUntil(horizon)
	})
	if changes == seen || eng.Processed()-before < 1000 {
		t.Fatalf("measured loop saw %d home price changes in %d events; the price chains are not live",
			changes-seen, eng.Processed()-before)
	}
	if allocs >= 1 {
		t.Fatalf("steady-state watched run loop allocated %.2f per simulated day, want < 1", allocs)
	}
}

// TestObsOffAllocs pins the telemetry layer's disabled-path contract:
// with no obs recorder on the engine, the billing hooks (the hottest obs
// call sites — they fire every simulated hour per instance) must add
// zero steady-state allocations. Every hook site guards on the nil
// recorder before building any argument, so this is the same bound as
// TestSteadyStateRunLoopAllocs.
func TestObsOffAllocs(t *testing.T) {
	mcfg := market.DefaultConfig(1)
	mcfg.Horizon = 40 * sim.Day
	set, err := market.Generate(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	eng.SetObs(nil) // explicit: telemetry off
	prov := cloud.NewProvider(eng, set, cloud.DefaultParams(1))
	home := market.ID{Region: "us-east-1a", Type: "small"}
	if _, err := prov.RequestOnDemand(home, cloud.Callbacks{}); err != nil {
		t.Fatal(err)
	}
	horizon := sim.Time(30 * sim.Day)
	eng.RunUntil(horizon)
	allocs := testing.AllocsPerRun(5, func() {
		horizon += sim.Day
		eng.RunUntil(horizon)
	})
	if allocs >= 1 {
		t.Fatalf("obs-off steady state allocated %.2f per simulated day, want < 1", allocs)
	}
}
