package cloud_test

import (
	"fmt"
	"testing"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

// The provider only simulates price changes of watched markets. These
// tests pin the claim that this is invisible: a run whose provider watches
// every market up front — the old behaviour, which stepped all markets
// through the event loop — produces byte-identical reports and ledgers to
// the default run, in which only the callers' declared markets are watched.

const equivHorizon = 8 * sim.Day

var equivHome = market.ID{Region: "us-east-1a", Type: "small"}

// equivSet generates a universe, typed with the default catalog or legacy.
func equivSet(t *testing.T, seed int64, typed bool) *market.Set {
	t.Helper()
	cfg := market.DefaultConfig(seed)
	cfg.Horizon = equivHorizon
	if typed {
		cfg.Types = catalog.Default().TypeSpecs()
	}
	set, err := market.SharedCache().Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// runBoth runs build twice over fresh engines and providers, the second
// time watching every market before build, and fails unless both runs
// render the same report and ledger.
func runBoth(t *testing.T, name string, set *market.Set, seed int64,
	build func(prov *cloud.Provider) (report func() string, err error)) {
	t.Helper()
	var out [2]string
	for i, watchAll := range []bool{false, true} {
		eng := sim.NewEngine()
		prov := cloud.NewProvider(eng, set, cloud.DefaultParams(seed))
		if watchAll {
			prov.Watch(set.IDs()...)
		}
		report, err := build(prov)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eng.RunUntil(equivHorizon)
		out[i] = fmt.Sprintf("%s\n%#v", report(), prov.Ledger().Entries())
	}
	if out[0] != out[1] {
		t.Errorf("%s: watching declared markets only diverges from watching all", name)
	}
}

func TestWatchedOnlyMatchesWatchAllSched(t *testing.T) {
	var regionMarkets []market.ID
	for _, ts := range market.DefaultTypes() {
		regionMarkets = append(regionMarkets, market.ID{Region: equivHome.Region, Type: ts.Name})
	}
	for _, seed := range []int64{1, 2, 3} {
		set := equivSet(t, seed, false)
		for _, bidding := range []sched.Bidding{sched.OnDemandOnly, sched.Reactive, sched.Proactive, sched.PureSpot} {
			for _, shape := range []string{"single", "multi", "multi-stability"} {
				cfg, err := sched.DefaultConfig(equivHome, market.DefaultTypes())
				if err != nil {
					t.Fatal(err)
				}
				cfg.Bidding = bidding
				if shape != "single" {
					cfg.Markets = regionMarkets
				}
				if shape == "multi-stability" {
					cfg.StabilityPenalty = 1
				}
				runBoth(t, fmt.Sprintf("seed %d %v %s", seed, bidding, shape), set, seed,
					func(prov *cloud.Provider) (func() string, error) {
						s, err := sched.New(prov, cfg)
						if err != nil {
							return nil, err
						}
						s.Start()
						return func() string { return fmt.Sprintf("%#v", s.Report()) }, nil
					})
			}
		}
	}
}

func TestWatchedOnlyMatchesWatchAllFleet(t *testing.T) {
	for _, typed := range []bool{false, true} {
		for _, seed := range []int64{1, 2} {
			set := equivSet(t, seed, typed)
			demand, err := fleet.NewDiurnalDemand(fleet.DefaultDiurnalConfig(equivHorizon, seed))
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range fleet.Strategies() {
				cfg := fleet.Config{
					Strategy: strat,
					Demand:   demand,
					Planner:  fleet.LinearPlanner{PerReplica: 6},
				}
				if typed {
					// The anchor's compatible markets leave the weaker
					// types unwatched.
					cfg.Catalog, cfg.AnchorType = catalog.Default(), "large"
				} else {
					cfg.Markets = []market.ID{equivHome, {Region: "us-west-1a", Type: "small"}, {Region: "eu-west-1a", Type: "large"}}
				}
				runBoth(t, fmt.Sprintf("catalog %v seed %d %s", typed, seed, strat.Name()), set, seed,
					func(prov *cloud.Provider) (func() string, error) {
						c, err := fleet.New(prov, cfg)
						if err != nil {
							return nil, err
						}
						c.Start()
						return func() string { return fmt.Sprintf("%#v", c.Report()) }, nil
					})
			}
		}
	}
}

// TestWatchedOnlyMatchesWatchAllPortfolio shares one provider between two
// services watching different markets, the second joining mid-run.
func TestWatchedOnlyMatchesWatchAllPortfolio(t *testing.T) {
	set := equivSet(t, 4, false)
	west := market.ID{Region: "us-west-1a", Type: "large"}
	var out [2]string
	for i, watchAll := range []bool{false, true} {
		p := sched.NewPortfolio(set, cloud.DefaultParams(4))
		if watchAll {
			p.Provider().Watch(set.IDs()...)
		}
		a, err := sched.DefaultConfig(equivHome, market.DefaultTypes())
		if err != nil {
			t.Fatal(err)
		}
		b, err := sched.DefaultConfig(west, market.DefaultTypes())
		if err != nil {
			t.Fatal(err)
		}
		b.Markets = []market.ID{west, {Region: "us-west-1a", Type: "xlarge"}}
		b.Bidding = sched.PureSpot
		if err := p.Add("a", a); err != nil {
			t.Fatal(err)
		}
		if err := p.AddAt(2*sim.Day, "b", b); err != nil {
			t.Fatal(err)
		}
		if err := p.Run(equivHorizon); err != nil {
			t.Fatal(err)
		}
		for _, name := range p.Services() {
			rep, err := p.Report(name)
			if err != nil {
				t.Fatal(err)
			}
			out[i] += fmt.Sprintf("%s: %#v\n", name, rep)
		}
		out[i] += fmt.Sprintf("%#v", p.Provider().Ledger().Entries())
	}
	if out[0] != out[1] {
		t.Error("portfolio: watching declared markets only diverges from watching all")
	}
}
