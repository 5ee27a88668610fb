package sched

import (
	"context"
	"fmt"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Run wires up an engine, a provider over the given price set, and a
// scheduler, runs the simulation to the horizon (clamped to the traces'
// common extent), and returns the run report.
func Run(set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration) (metrics.Report, error) {
	return RunCtx(context.Background(), set, cloudParams, cfg, horizon)
}

// RunCtx is Run under a context: the engine polls ctx every
// sim.CancelPollInterval events and the run returns ctx's error as soon as
// it is canceled, discarding the partial report. A canceled month-long
// simulation aborts within one poll batch — milliseconds — rather than
// running to its horizon.
func RunCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration) (metrics.Report, error) {
	return RunTracedCtx(ctx, set, cloudParams, cfg, horizon, nil)
}

// RunTracedCtx is RunCtx with a trace recorder attached to the run's
// engine: every layer sharing the engine (provider billing, scheduler
// migrations, checkpoint daemon) records into it. A nil recorder is
// exactly RunCtx — the untraced path adds no allocations (see
// BenchmarkSchedulerMonthTraced).
func RunTracedCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration, rec *trace.Recorder) (metrics.Report, error) {

	if horizon <= 0 || horizon > set.Horizon() {
		horizon = set.Horizon()
	}
	eng := sim.NewEngine()
	eng.SetRecorder(rec)
	prov := cloud.NewProvider(eng, set, cloudParams)
	s, err := New(prov, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	s.Start()
	if err := eng.RunUntilCtx(ctx, horizon); err != nil {
		return metrics.Report{}, err
	}
	rec.CloseOpen(eng.Now())
	return s.Report(), nil
}

// RunSeeds runs the same configuration against synthetic universes for
// each seed and returns the per-seed reports in seed order. The market
// config's Seed field is overridden per run. Runs execute in parallel
// with one worker per CPU; results are identical to a serial run (see
// RunSeedsTracedCtx).
func RunSeeds(mcfg market.Config, cloudParams cloud.Params, cfg Config,
	horizon sim.Duration, seeds []int64) ([]metrics.Report, error) {
	return RunSeedsTracedCtx(context.Background(), mcfg, cloudParams, cfg, horizon, seeds, 0, nil)
}

// RunSeedsTracedCtx fans the seeds over a bounded runpool (workers <= 0
// means one per CPU). Each run is an independent single-threaded
// simulation; parallelism is strictly across runs, results are collected
// in seed order, and universes come from the process-wide
// market.SharedCache, so the reports are byte-identical for any worker
// count. Canceling ctx (or any seed failing) cancels every in-flight seed
// simulation via runpool.MapCtx, so the pool's workers free up promptly
// instead of finishing their month-long runs.
//
// With a trace collector, each seed's run records into its own recorder
// (labeled "seed<N>", scoped by the collector) and hands it back on
// completion, so concurrent runs never share a recorder. A nil collector
// mints nil recorders and traces nothing.
func RunSeedsTracedCtx(ctx context.Context, mcfg market.Config, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration, seeds []int64, workers int, col *trace.Collector) ([]metrics.Report, error) {

	if len(seeds) == 0 {
		return nil, fmt.Errorf("sched: no seeds")
	}
	cache := market.SharedCache()
	return runpool.MapCtx(ctx, workers, seeds, func(ctx context.Context, _ int, seed int64) (metrics.Report, error) {
		mc := mcfg
		mc.Seed = seed
		set, err := cache.Generate(mc)
		if err != nil {
			return metrics.Report{}, err
		}
		cp := cloudParams
		cp.Seed = seed
		rec := col.Run(fmt.Sprintf("seed%d", seed))
		rep, err := RunTracedCtx(ctx, set, cp, cfg, horizon, rec)
		if err == nil {
			col.Done(rec)
		}
		return rep, err
	})
}
