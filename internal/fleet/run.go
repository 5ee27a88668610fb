package fleet

import (
	"context"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Run wires up an engine, a provider over the price set and a fleet
// controller, runs to the horizon (clamped to the traces' extent) and
// returns the fleet report.
func Run(set *market.Set, cloudParams cloud.Params, cfg Config, horizon sim.Duration) (Report, error) {
	return RunCtx(context.Background(), set, cloudParams, cfg, horizon)
}

// RunCtx is Run under a context: the engine polls ctx every
// sim.CancelPollInterval events and the run returns ctx's error as soon
// as it is canceled, discarding the partial report.
func RunCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration) (Report, error) {
	return RunObsCtx(ctx, set, cloudParams, cfg, horizon, nil, nil)
}

// RunObsCtx is RunCtx with recorders attached to the run's engine, either
// of which may be nil independently at no cost. The trace recorder gets
// replica launches, revocation warnings and losses, one track per market
// (revocation clustering is visible as a burst of loss instants in one
// lane). The telemetry recorder gets capacity/cost timelines, the
// decision ledger and SLO alerting (finalized at the horizon). It is one
// maximal Step of a Sim; the control plane drives the same machinery in
// bounded slices instead.
func RunObsCtx(ctx context.Context, set *market.Set, cloudParams cloud.Params,
	cfg Config, horizon sim.Duration, rec *trace.Recorder, ob *obs.Recorder) (Report, error) {

	s, err := NewSimObs(set, cloudParams, cfg, horizon, rec, ob)
	if err != nil {
		return Report{}, err
	}
	if _, err := s.Step(ctx, s.Horizon()); err != nil {
		return Report{}, err
	}
	return s.Report(), nil
}
