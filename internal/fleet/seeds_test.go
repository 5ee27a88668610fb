package fleet

import (
	"context"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/runpool"
	"spothost/internal/sim"
)

// RunSeeds runs cfg against the synthetic universe of each seed (from
// market.SharedCache, with the seed also driving the provider) over
// runpool.MapCtx, one worker per CPU, and returns the per-seed reports in
// seed order.
func RunSeeds(mcfg market.Config, cloudParams cloud.Params, cfg Config,
	horizon sim.Duration, seeds []int64) ([]Report, error) {
	return runpool.MapCtx(context.Background(), 0, seeds, func(ctx context.Context, _ int, seed int64) (Report, error) {
		mc := mcfg
		mc.Seed = seed
		set, err := market.SharedCache().Generate(mc)
		if err != nil {
			return Report{}, err
		}
		cp := cloudParams
		cp.Seed = seed
		return RunCtx(ctx, set, cp, cfg, horizon)
	})
}
