package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"spothost/internal/catalog"
	"spothost/internal/cloud"
	"spothost/internal/controlplane"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/scenario"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/sweep"
	"spothost/internal/tpcw"
	"spothost/internal/trace"
)

// The layer probes compose one cell of each layer from its public
// constructors and time it from outside. They run in their own child
// process after the workload in every traced run, so every traced run
// reports every layer. Fixtures (universes, envelopes, checkpoints) are
// built outside the timers; each timing is the median of a few repeats,
// and each overhead ratio is the ratio of medians over interleaved pairs.

type probeArgs struct {
	Variant int
	Spans   string
}

func runProbeChild(cfg config) (map[string]float64, error) {
	var m map[string]float64
	_, err := spawnChild("probe", probeArgs{Variant: variantOf(cfg.Seed), Spans: spansPath(cfg, "probe")}, &m)
	return m, err
}

const probeHorizon = 30 * sim.Day

// prober times probe calls, recording one span per call.
type prober struct {
	rec *spanRec
	L   map[string]float64
}

// measure runs fn n times and returns the median duration in milliseconds.
func (p *prober) measure(name string, n int, fn func() error) (float64, error) {
	var d []float64
	for i := 0; i < n; i++ {
		id := p.rec.begin(name, 0, name+"#"+strconv.Itoa(i))
		t0 := time.Now()
		err := fn()
		d = append(d, ms(time.Since(t0)))
		p.rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return median(d), nil
}

// ratio times interleaved (base, with) pairs, alternating which runs first,
// and returns median(with) / median(base).
func (p *prober) ratio(name string, pairs int, base, with func() error) (float64, error) {
	var b, w []float64
	for i := 0; i < pairs; i++ {
		order := []bool{false, true}
		if i%2 == 1 {
			order = []bool{true, false}
		}
		for _, isWith := range order {
			fn, label := base, name+".base"
			if isWith {
				fn, label = with, name+".with"
			}
			id := p.rec.begin(label, 0, name+"#"+strconv.Itoa(i))
			t0 := time.Now()
			err := fn()
			el := ms(time.Since(t0))
			p.rec.end(id)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			if isWith {
				w = append(w, el)
			} else {
				b = append(b, el)
			}
		}
	}
	return median(w) / median(b), nil
}

func childProbe(raw []byte) (any, error) {
	var a probeArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	p := &prober{rec: newSpanRec(), L: map[string]float64{}}
	seed := int64(101 + 1000*a.Variant)
	steps := []func(*prober, int64) error{probeMarket, probeSched, probeFleet, probeTPCW, probeSweepPlan, probeControlPlane}
	for _, step := range steps {
		if err := step(p, seed); err != nil {
			return nil, err
		}
	}
	if err := writeSpans(a.Spans, p.rec.finish()); err != nil {
		return nil, err
	}
	return p.L, nil
}

// universes returns the probe's legacy (4 types, 16 markets) and catalog
// (10 types, 40 markets) 30-day market configs.
func universes(seed int64) (legacy, typed market.Config) {
	legacy = market.DefaultConfig(seed)
	typed = legacy
	typed.Types = catalog.Default().TypeSpecs()
	return legacy, typed
}

func probeMarket(p *prober, seed int64) error {
	legacy, typed := universes(seed)
	for _, u := range []struct {
		cfg    market.Config
		suffix string
	}{{legacy, ""}, {typed, "_catalog"}} {
		var sets []*market.Set
		gen, err := p.measure("market.generate", 3, func() error {
			s, err := market.Generate(u.cfg)
			sets = append(sets, s)
			return err
		})
		if err != nil {
			return err
		}
		// Envelopes are memoized per set, so each repeat builds on a
		// fresh universe.
		i := 0
		env, err := p.measure("market.envelope", 3, func() error {
			s := sets[i]
			i++
			if s.Envelope(s.IDs(), nil) == nil {
				return errors.New("empty envelope")
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.L["market.generate"+u.suffix+"_ms"] = gen
		p.L["market.envelope"+u.suffix+"_ms"] = env
		if u.suffix != "" {
			continue
		}
		e := sets[0].Envelope(sets[0].IDs(), nil)
		const queries = 30 * 24 * 60 // one per simulated minute
		cur, err := p.measure("market.cursor", 5, func() error {
			c := e.Cursor()
			for q := 0; q < queries; q++ {
				c.At(float64(q) * sim.Minute)
			}
			return nil
		})
		if err != nil {
			return err
		}
		p.L["market.cursor_ns"] = cur * 1e6 / queries
	}
	return nil
}

func probeSched(p *prober, seed int64) error {
	legacy, _ := universes(seed)
	set, err := market.Generate(legacy)
	if err != nil {
		return err
	}
	params := cloud.DefaultParams(seed)
	cfg, err := sched.DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"}, market.DefaultTypes())
	if err != nil {
		return err
	}
	var (
		events     uint64
		counters   cloud.Counters
		migrations int
	)
	cell, err := p.measure("sched.cell", 3, func() error {
		eng := sim.NewEngine()
		prov := cloud.NewProvider(eng, set, params)
		s, err := sched.New(prov, cfg)
		if err != nil {
			return err
		}
		s.Start()
		eng.RunUntil(probeHorizon)
		r := s.Report()
		events, counters = eng.Processed(), prov.Counters()
		migrations = r.Migrations.Forced + r.Migrations.Planned + r.Migrations.Reverse
		return nil
	})
	if err != nil {
		return err
	}
	p.L["sched.cell_ms"] = cell
	p.L["sim.events"] = float64(events)
	p.L["sim.ns_per_event"] = cell * 1e6 / float64(events)
	p.L["cloud.spot_requests"] = float64(counters.SpotRequests)
	p.L["cloud.revocations"] = float64(counters.Revocations)
	if counters.SpotRequests > 0 {
		p.L["cloud.spot_grant_ratio"] = float64(counters.SpotLaunched) / float64(counters.SpotRequests)
	}
	p.L["sched.migrations"] = float64(migrations)

	ctx := context.Background()
	var log *sched.ForkLog
	p.L["sched.checkpoint_overhead_ratio"], err = p.ratio("sched.checkpoint", 3,
		func() error { _, err := sched.RunCtx(ctx, set, params, cfg, probeHorizon); return err },
		func() error {
			var err error
			_, log, err = sched.RunWithCheckpointsCtx(ctx, set, params, cfg, probeHorizon, 6*sim.Hour)
			return err
		})
	if err != nil {
		return err
	}
	ck := log.LastCheckpointAtOrBefore(probeHorizon / 2)
	if ck == nil {
		return errors.New("sched: no checkpoint before mid-horizon")
	}
	p.L["sched.fork_resume_ms"], err = p.measure("sched.fork_resume", 3, func() error {
		_, err := sched.RunForkedCtx(ctx, set, params, cfg, probeHorizon, ck)
		return err
	})
	return err
}

func probeFleet(p *prober, seed int64) error {
	legacy, typed := universes(seed)
	params := cloud.DefaultParams(seed)
	ctx := context.Background()
	for _, u := range []struct {
		cfg    market.Config
		def    scenario.FleetDef
		metric string
	}{
		{legacy, scenario.FleetDef{Strategy: "diversified"}, "fleet.cell_ms"},
		{typed, scenario.FleetDef{Strategy: "diversified", Catalog: "default", AnchorType: "small"}, "fleet.catalog_cell_ms"},
	} {
		set, err := market.Generate(u.cfg)
		if err != nil {
			return err
		}
		fcfg, err := u.def.Config(probeHorizon, seed)
		if err != nil {
			return err
		}
		var events uint64
		var rep fleet.Report
		cell, err := p.measure(u.metric[:len(u.metric)-3], 3, func() error {
			eng := sim.NewEngine()
			prov := cloud.NewProvider(eng, set, params)
			c, err := fleet.New(prov, fcfg)
			if err != nil {
				return err
			}
			c.Start()
			eng.RunUntil(probeHorizon)
			events, rep = eng.Processed(), c.Report()
			return nil
		})
		if err != nil {
			return err
		}
		p.L[u.metric] = cell
		if u.def.Catalog != "" {
			continue
		}
		p.L["fleet.events"] = float64(events)
		p.L["fleet.launches"] = float64(rep.Launches)
		p.L["fleet.replicas_lost"] = float64(rep.ReplicasLost)

		var sims []*fleet.Sim
		for i := 0; i < 3; i++ {
			s, err := fleet.NewSim(set, params, fcfg, probeHorizon, nil)
			if err != nil {
				return err
			}
			sims = append(sims, s)
		}
		i := 0
		p.L["fleet.step_ms"], err = p.measure("fleet.step", 3, func() error {
			s := sims[i]
			i++
			_, err := s.Step(ctx, sim.Day)
			return err
		})
		if err != nil {
			return err
		}
		// Telemetry overhead on one pre-generated universe, both sides
		// warm: this supersedes the "~3%" BenchmarkFleetMonthObs figure,
		// which compared a cold first iteration against warm ones.
		if _, err := fleet.RunCtx(ctx, set, params, fcfg, probeHorizon); err != nil {
			return err
		}
		p.L["obs.overhead_ratio"], err = p.ratio("obs", 5,
			func() error { _, err := fleet.RunCtx(ctx, set, params, fcfg, probeHorizon); return err },
			func() error {
				_, err := fleet.RunObsCtx(ctx, set, params, fcfg, probeHorizon, nil, obs.NewRecorder("probe", obs.Config{}))
				return err
			})
		if err != nil {
			return err
		}
	}
	return nil
}

func probeTPCW(p *prober, seed int64) error {
	var err error
	p.L["tpcw.run_ms"], err = p.measure("tpcw.run", 3, func() error {
		_, err := tpcw.Run(tpcw.DefaultConfig(400, true, true, seed))
		return err
	})
	return err
}

func probeSweepPlan(p *prober, _ int64) error {
	var axes [][]sweep.Axis
	for _, g := range sweepGrids {
		a, err := sweep.ParseGrid(g)
		if err != nil {
			return err
		}
		axes = append(axes, a)
	}
	var err error
	p.L["sweep.plan_ms"], err = p.measure("sweep.plan", 5, func() error {
		for _, a := range axes {
			if _, err := sweep.NewPlan(a, market.ID{Region: "us-east-1a", Type: "small"}, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// probeControlPlane compares an uncontended in-process Register→done of a
// 30-day fleet, configured as spotserve configures its plane (telemetry
// and trace histograms on), with a standalone fleet.RunCtx of the same
// spec over the same cached universe.
func probeControlPlane(p *prober, seed int64) error {
	spec := controlplane.Spec{Seed: seed, Days: 30, Fleet: scenario.FleetDef{Strategy: "diversified"}}
	set, err := market.SharedCache().Generate(market.DefaultConfig(seed))
	if err != nil {
		return err
	}
	fcfg, err := spec.Fleet.Config(probeHorizon, seed)
	if err != nil {
		return err
	}
	plane := controlplane.New(controlplane.Config{
		Trace: trace.NewHistogramCollector(),
		Obs:   obs.NewAggregateCollector(obs.Config{}),
	})
	defer plane.Close()
	ctx := context.Background()
	n := 0
	registerDone := func() error {
		name := "p" + strconv.Itoa(n)
		n++
		if _, err := plane.Register("probe", name, spec); err != nil {
			return err
		}
		for {
			s, err := plane.Snapshot("probe", name)
			if err != nil {
				return err
			}
			switch s.State {
			case controlplane.StateDone:
				return plane.Unregister("probe", name)
			case controlplane.StateFailed:
				return errors.New(s.Error)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	if err := registerDone(); err != nil { // warm the plane
		return err
	}
	p.L["controlplane.overhead_ratio"], err = p.ratio("controlplane", 5,
		func() error {
			_, err := fleet.RunCtx(ctx, set, cloud.DefaultParams(seed), fcfg, probeHorizon)
			return err
		},
		registerDone)
	return err
}
