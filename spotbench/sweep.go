package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/sweep"
)

// sweepGrids is the sweep workload's grid set, run as
// `cmd/sweep -grid … -warm-start -fork -prune` runs them. Together the
// grids resolve cells all four ways: cold simulation (the tau×hysteresis
// grid is almost all cold), shared (bid classes), forked (bid and
// hysteresis siblings) and pruned.
var sweepGrids = []string{
	"bid=1.5,2,2.5,3,4,6,8;tau=3,30",
	"tau=1,3,10,30,60;hysteresis=0,0.1",
	"bid=1.5,2,3;hysteresis=0,0.05,0.15;lambda=0,1",
}

// sweepSeeds is the five universe seeds of one input variant.
func sweepSeeds(variant int) []int64 {
	var s []int64
	for i := 0; i < 5; i++ {
		s = append(s, int64(23*(5*variant+i+1)))
	}
	return s
}

// sweepSpecs builds one sweep.Spec per grid: 30-day horizon, home market
// us-east-1a/small, simulation parallelism 2, warm start, fork and prune.
func sweepSpecs(variant int) ([]sweep.Spec, error) {
	var specs []sweep.Spec
	for _, g := range sweepGrids {
		axes, err := sweep.ParseGrid(g)
		if err != nil {
			return nil, err
		}
		specs = append(specs, sweep.Spec{
			Axes:      axes,
			Seeds:     sweepSeeds(variant),
			Home:      market.ID{Region: "us-east-1a", Type: "small"},
			Horizon:   30 * sim.Day,
			Market:    market.DefaultConfig(0),
			Workers:   2,
			WarmStart: true,
			Fork:      true,
			Prune:     true,
		})
	}
	return specs, nil
}

type sweepArgs struct {
	Variant int
	Spans   string
}

type gridResult struct {
	Cells, Simulated, Shared, Forked, Pruned int
	Ms                                       float64
	Digest                                   string // sha256 of the per-point results, provenance left out
	Err                                      string `json:",omitempty"`
}

type sweepResult struct {
	Grids       []gridResult
	CacheHits   int
	CacheMisses int
}

// childSweep runs every grid once through sweep.Run.
func childSweep(raw []byte) (any, error) {
	var a sweepArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	specs, err := sweepSpecs(a.Variant)
	if err != nil {
		return nil, err
	}
	var rec *spanRec
	if a.Spans != "" {
		rec = newSpanRec()
	}
	var res sweepResult
	for i := range specs {
		req := "grid" + strconv.Itoa(i)
		root := rec.begin("sweep.grid", 0, req)
		sp := rec.begin("sweep.run", root, req)
		t0 := time.Now()
		sum, err := sweep.Run(context.Background(), &specs[i])
		g := gridResult{Ms: ms(time.Since(t0))}
		rec.end(sp)
		rec.end(root)
		if err != nil {
			g.Err = err.Error()
		} else {
			g.Cells, g.Simulated, g.Shared, g.Forked, g.Pruned = sum.Cells, sum.Simulated, sum.Shared, sum.Forked, sum.PrunedCells
			g.Digest = resultsDigest(sum.Results)
		}
		res.Grids = append(res.Grids, g)
	}
	st := market.SharedCache().Stats()
	res.CacheHits, res.CacheMisses = int(st.Hits), int(st.Misses)
	if rec != nil {
		if err := writeSpans(a.Spans, rec.finish()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// resultsDigest is the sha256 of a grid's per-point results with their
// provenance (SharedSeeds, ForkedSeeds, MeanForkAt, Pilot) zeroed, as the
// sweep package's own toggle tests compare them: how a cell was resolved —
// cold, shared or forked — may change with the reuse the engine finds,
// while each point's values, seed count, mean report and pruning may not.
func resultsDigest(rs []sweep.Result) string {
	stripped := make([]sweep.Result, len(rs))
	for i, r := range rs {
		r.SharedSeeds, r.ForkedSeeds, r.MeanForkAt, r.Pilot = 0, 0, 0, 0
		stripped[i] = r
	}
	return digest([]byte(fmt.Sprintf("%+v", stripped)))
}

// runSweep is the sweep workload: passes over the grid set, each in a
// fresh child process. The passes rotate through the seven tuning
// variants, starting at the seed's, one variant a pass, and a run makes
// whole rotations for as long as the next one fits in --seconds (at least
// one), so every run measures the same inputs and its medians do not hang
// on which variants it happened to cover. A held-out seed runs the
// held-out variant as often. A traced run makes each pass twice, untraced
// then traced.
func runSweep(cfg config) (*outcome, error) {
	v0 := variantOf(cfg.Seed)
	setup, err := setupBatch("sweep", v0)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var (
		passS, rates, overhead []float64
		rss, cpu, childWall    float64
		first                  *sweepResult
	)
	perVariant := 1
	if cfg.Trace {
		perVariant = 2
	}
	rotation := heldOut * perVariant
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && i%rotation == 0 {
			el := time.Since(start).Seconds()
			if el+el/float64(i/rotation) > cfg.Seconds {
				break
			}
		}
		traced := cfg.Trace && i%2 == 1
		v := heldOut
		if v0 != heldOut {
			v = (v0 + i/perVariant) % heldOut
		}
		refs, ok := sweepRefs(v)
		if !ok {
			return nil, fmt.Errorf("no sweep reference digests for variant %d", v)
		}
		args := sweepArgs{Variant: v}
		if traced {
			args.Spans = spansPath(cfg, "sweep-pass"+strconv.Itoa(i))
		}
		var res sweepResult
		r, err := spawnChild("sweep", args, &res)
		if err != nil {
			return nil, err
		}
		var cells, passMs float64
		for gi, g := range res.Grids {
			out.Attempted++
			switch {
			case g.Err != "":
				out.Failed++
				fmt.Fprintf(os.Stderr, "sweep: variant %d grid %d failed: %s\n", v, gi, g.Err)
			case g.Simulated+g.Shared+g.Forked+g.Pruned != g.Cells:
				out.Failed++
				fmt.Fprintf(os.Stderr, "sweep: variant %d grid %d resolutions do not add up to %d cells\n", v, gi, g.Cells)
			case g.Digest != refs[gi]:
				out.Failed++
				fmt.Fprintf(os.Stderr, "sweep: variant %d grid %d results differ from the reference\n", v, gi)
			}
			cells += float64(g.Cells)
			passMs += g.Ms
		}
		rss = max(rss, r.MaxRSS)
		if traced {
			overhead = append(overhead, passMs/1000/passS[len(passS)-1])
			if first == nil {
				first = &res
			}
			continue
		}
		passS = append(passS, passMs/1000)
		rates = append(rates, cells/(passMs/1000))
		cpu += r.CPU.Seconds()
		childWall += r.Wall.Seconds()
	}
	out.E2E = map[string]float64{
		"setup_s":    setup,
		"max_rss_mb": rss,
		"wall_s":     median(passS),
		"rate_per_s": median(rates),
	}
	if !cfg.Trace {
		return out, nil
	}
	L := out.Layer
	L["sweep_cells_per_s"] = median(rates)
	L["trace.overhead_ratio"] = median(overhead)
	L["runpool.cpu_util"] = cpu / (childWall * 2)
	L["market.cache_hits"] = float64(first.CacheHits)
	L["market.cache_misses"] = float64(first.CacheMisses)
	var cells, simulated float64
	for _, g := range first.Grids {
		cells += float64(g.Cells)
		simulated += float64(g.Simulated)
		L["sweep.shared"] += float64(g.Shared)
		L["sweep.forked"] += float64(g.Forked)
		L["sweep.pruned"] += float64(g.Pruned)
	}
	L["sweep.cells"] = cells
	L["sweep.simulated"] = simulated
	if cells > 0 {
		L["sweep.reuse_ratio"] = 1 - simulated/cells
	}
	return out, nil
}
