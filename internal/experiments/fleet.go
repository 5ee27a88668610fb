package experiments

import (
	"context"
	"fmt"
	"sync"

	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/runpool"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Fleet experiment constants: a diurnal load peaking at 1200 emulated
// browsers (a replica saturates around 150 at the 250 ms target, so the
// fleet breathes between roughly 3 and 9 replicas), bids at 1.5x
// on-demand so the generator's spikes revoke often enough to compare
// blast radii, and 6-hour windows for the loss-variance statistic.
const (
	fleetBaseLoad    = 300
	fleetPeakLoad    = 1200
	fleetBidMultiple = 1.5
	fleetMaxReplicas = 16
	fleetTargetMs    = 250
	fleetLossWindow  = 6 * sim.Hour
	fleetPlanQuantum = 128
	fleetDemandSeed  = 0 // fixed: every seed faces the same load curve
)

// fleetPlanner is the shared, memoized TPC-W capacity planner. The
// planner's inputs are experiment constants, so one instance serves every
// Fleet call (and every parallel cell); its mutex-guarded memo keeps
// lookups deterministic regardless of call order.
var fleetPlanner = sync.OnceValues(func() (*fleet.TPCWPlanner, error) {
	return fleet.NewTPCWPlanner(fleetTargetMs, fleetMaxReplicas, fleetPlanQuantum, 0)
})

// fleetMarkets restricts the fleet to the "small" market of every
// region: identical replica capacity everywhere, correlated only through
// the generator's shared regional/global shocks.
func fleetMarkets(opts Options) []market.ID {
	var ids []market.ID
	for _, r := range opts.Market.Regions {
		ids = append(ids, market.ID{Region: r.Name, Type: "small"})
	}
	return ids
}

// FleetRow is one allocation strategy's cross-seed outcome.
type FleetRow struct {
	Strategy string
	// Mean is the cross-seed average report (series dropped).
	Mean fleet.Report
	// Seeds holds the per-seed reports, in seed order.
	Seeds []fleet.Report
	// WorstSimultaneousLoss is the largest single-instant replica loss
	// across all seeds; MeanMaxSimultaneousLoss averages the per-seed
	// maxima. LossVariance pools per-window loss counts across seeds.
	WorstSimultaneousLoss   int
	MeanMaxSimultaneousLoss float64
	LossVariance            float64
	LossEvents              int
}

// FleetResult compares the three allocation strategies: the repo's
// extension of the paper from one migrating VM to a replicated fleet.
type FleetResult struct {
	Markets []market.ID
	Window  sim.Duration
	Rows    []FleetRow
}

// Fleet runs the fleet-controller experiment: every (strategy, seed)
// cell is an independent simulation fanned over one worker pool, sharing
// the market cache and the memoized capacity planner.
func Fleet(opts Options) (FleetResult, error) {
	opts = opts.normalize()
	res := FleetResult{Markets: fleetMarkets(opts), Window: fleetLossWindow}
	anchor := opts.Anchor
	if anchor == "" {
		anchor = heterogeneityAnchor
	}
	if opts.Catalog != nil {
		// The candidate universe is every catalog-compatible market of
		// the widened set, not the per-region small markets.
		mc := opts.Market
		mc.Seed = opts.Seeds[0]
		mc.Types = opts.Catalog.TypeSpecs()
		set, err := market.SharedCache().Generate(mc)
		if err != nil {
			return res, err
		}
		if res.Markets, err = opts.Catalog.CompatibleMarkets(set, anchor); err != nil {
			return res, err
		}
	}
	planner, err := fleetPlanner()
	if err != nil {
		return res, err
	}
	dcfg := fleet.DefaultDiurnalConfig(opts.Horizon, fleetDemandSeed)
	dcfg.Base = fleetBaseLoad
	dcfg.Peak = fleetPeakLoad
	demand, err := fleet.NewDiurnalDemand(dcfg)
	if err != nil {
		return res, err
	}
	strategies := fleet.Strategies()
	ns := len(opts.Seeds)
	cache := market.SharedCache()
	cells := make([]int, len(strategies)*ns)
	reports, err := runpool.MapCtx(opts.Context, opts.Parallel, cells, func(ctx context.Context, i, _ int) (fleet.Report, error) {
		seed := opts.Seeds[i%ns]
		mc := opts.Market
		mc.Seed = seed
		if opts.Catalog != nil {
			mc.Types = opts.Catalog.TypeSpecs()
		}
		set, err := cache.Generate(mc)
		if err != nil {
			return fleet.Report{}, err
		}
		cp := opts.Cloud
		cp.Seed = seed
		cfg := fleet.Config{
			Strategy:    strategies[i/ns],
			Demand:      demand,
			Planner:     planner,
			BidMultiple: fleetBidMultiple,
			MaxReplicas: fleetMaxReplicas,
		}
		if opts.Catalog != nil {
			cfg.Catalog = opts.Catalog
			cfg.AnchorType = anchor
		} else {
			cfg.Markets = res.Markets
		}
		var rec *trace.Recorder
		if opts.Trace != nil {
			rec = opts.Trace.Run(fmt.Sprintf("%s/seed%d", strategies[i/ns].Name(), seed))
		}
		var ob *obs.Recorder
		if opts.Obs != nil {
			ob = opts.Obs.Run(fmt.Sprintf("%s/seed%d", strategies[i/ns].Name(), seed))
		}
		rep, err := fleet.RunObsCtx(ctx, set, cp, cfg, opts.Horizon, rec, ob)
		if err == nil {
			opts.Trace.Done(rec)
			opts.Obs.Done(ob)
		}
		return rep, err
	})
	if err != nil {
		return res, err
	}
	for s, strat := range strategies {
		perSeed := reports[s*ns : (s+1)*ns]
		row := FleetRow{
			Strategy:     strat.Name(),
			Mean:         fleet.Average(perSeed),
			Seeds:        perSeed,
			LossVariance: fleet.PooledLossVariance(perSeed, fleetLossWindow),
		}
		for _, r := range perSeed {
			m := r.MaxSimultaneousLoss()
			if m > row.WorstSimultaneousLoss {
				row.WorstSimultaneousLoss = m
			}
			row.MeanMaxSimultaneousLoss += float64(m) / float64(ns)
			row.LossEvents += len(r.LossEvents)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the strategy comparison.
func (r FleetResult) Render() string {
	var rows [][]string
	for _, row := range r.Rows {
		m := row.Mean
		spotShare := 0.0
		if tot := m.SpotSeconds + m.OnDemandSeconds; tot > 0 {
			spotShare = m.SpotSeconds / tot
		}
		rows = append(rows, []string{
			row.Strategy,
			pct(m.NormalizedCost(), 1),
			pct(m.CapacityShortfall(), 3),
			fmt.Sprintf("%d", m.PeakTarget),
			pct(spotShare, 1),
			fmt.Sprintf("%d", m.OnDemandFallbacks),
			fmt.Sprintf("%d", m.ReverseReplacements),
			fmt.Sprintf("%d", m.ReplicasLost),
			fmt.Sprintf("%d", row.WorstSimultaneousLoss),
			fmt.Sprintf("%.1f", row.MeanMaxSimultaneousLoss),
			fmt.Sprintf("%.2f", row.LossVariance),
		})
	}
	return renderTable(
		fmt.Sprintf("Fleet: allocation strategies across %d spot markets (diurnal load, TPC-W capacity planning)", len(r.Markets)),
		[]string{"strategy", "cost", "shortfall", "peak", "spot time",
			"od fallback", "reverse", "lost", "worst simul", "mean max simul", "loss var"},
		rows)
}

// CSV emits the strategy comparison.
func (r FleetResult) CSV() string {
	var rows [][]string
	for _, row := range r.Rows {
		m := row.Mean
		rows = append(rows, []string{
			row.Strategy,
			f(m.NormalizedCost()), f(m.CapacityShortfall()),
			fmt.Sprintf("%d", m.PeakTarget),
			f(m.SpotSeconds), f(m.OnDemandSeconds),
			fmt.Sprintf("%d", m.OnDemandFallbacks),
			fmt.Sprintf("%d", m.ReverseReplacements),
			fmt.Sprintf("%d", m.ReplicasLost),
			fmt.Sprintf("%d", row.WorstSimultaneousLoss),
			f(row.MeanMaxSimultaneousLoss),
			f(row.LossVariance),
		})
	}
	return csvTable([]string{"strategy", "cost", "shortfall", "peak_target",
		"spot_seconds", "od_seconds", "od_fallbacks", "reverse_replacements",
		"replicas_lost", "worst_simultaneous", "mean_max_simultaneous", "loss_variance"}, rows)
}
