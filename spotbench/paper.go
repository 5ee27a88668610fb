package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"spothost/internal/experiments"
	"spothost/internal/market"
)

// paperOptions is experiments.Defaults() — the full-fidelity options
// cmd/paperbench uses — at simulation parallelism 2, with the five seeds
// shifted by 1000 per input variant. Variant 0 is exactly paperbench's
// default input.
func paperOptions(variant int) experiments.Options {
	o := experiments.Defaults()
	for i := range o.Seeds {
		o.Seeds[i] += int64(1000 * variant)
	}
	o.Parallel = 2
	return o
}

type paperArgs struct {
	Variant int
	Spans   string // non-empty: record spans and write them here
}

type paperEntry struct {
	Name     string
	Digest   string // sha256 of the entry's output as paperbench prints it
	Err      string `json:",omitempty"`
	RunMs    float64
	RenderMs float64
}

type paperResult struct {
	Entries     []paperEntry
	Digest      string // sha256 of the whole output
	CacheHits   int
	CacheMisses int
}

// childPaper runs every experiment in order and renders it exactly as
// cmd/paperbench prints it, digesting the output instead of printing it.
func childPaper(raw []byte) (any, error) {
	var a paperArgs
	if err := json.Unmarshal(raw, &a); err != nil {
		return nil, err
	}
	var rec *spanRec
	if a.Spans != "" {
		rec = newSpanRec()
	}
	opts := paperOptions(a.Variant)
	all := sha256.New()
	var res paperResult
	for _, e := range experiments.All() {
		root := rec.begin("experiments."+e.Name, 0, e.Name)
		sp := rec.begin("experiments.run", root, e.Name)
		t0 := time.Now()
		r, err := e.Run(opts)
		ent := paperEntry{Name: e.Name, RunMs: ms(time.Since(t0))}
		rec.end(sp)
		if err != nil {
			rec.end(root)
			ent.Err = err.Error()
			res.Entries = append(res.Entries, ent)
			continue
		}
		sp = rec.begin("experiments.render", root, e.Name)
		t1 := time.Now()
		text := fmt.Sprintf("=== %s ===\n%s\n", e.Name, r.Render())
		ent.RenderMs = ms(time.Since(t1))
		rec.end(sp)
		rec.end(root)
		ent.Digest = digest([]byte(text))
		all.Write([]byte(text))
		res.Entries = append(res.Entries, ent)
	}
	res.Digest = hex.EncodeToString(all.Sum(nil))
	st := market.SharedCache().Stats()
	res.CacheHits, res.CacheMisses = int(st.Hits), int(st.Misses)
	if rec != nil {
		if err := writeSpans(a.Spans, rec.finish()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runPaper is the paper workload: full reproductions in fresh child
// processes, back to back, for the run's length (at least one). A traced
// run adds one reproduction with spans on; the difference between the two
// is the tracing overhead.
func runPaper(cfg config) (*outcome, error) {
	v := variantOf(cfg.Seed)
	refs, ok := paperRefs(v)
	if !ok {
		return nil, fmt.Errorf("no paper reference digests for variant %d", v)
	}
	setup, err := setupBatch("paper", v)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var walls []float64
	var rss, cpu, entries float64
	check := func(res paperResult) {
		for _, e := range res.Entries {
			out.Attempted++
			switch {
			case e.Err != "":
				out.Failed++
				fmt.Fprintf(os.Stderr, "paper: %s failed: %s\n", e.Name, e.Err)
			case e.Digest != refs[e.Name]:
				out.Failed++
				fmt.Fprintf(os.Stderr, "paper: %s output differs from the reference\n", e.Name)
			}
		}
	}
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls) <= cfg.Seconds {
		var res paperResult
		r, err := spawnChild("paper", paperArgs{Variant: v}, &res)
		if err != nil {
			return nil, err
		}
		check(res)
		walls = append(walls, r.Wall.Seconds())
		rss = max(rss, r.MaxRSS)
		cpu += r.CPU.Seconds()
		entries += float64(len(res.Entries))
	}
	out.E2E = map[string]float64{
		"setup_s":    setup,
		"max_rss_mb": rss,
		"wall_s":     median(walls),
		"rate_per_s": entries / sum(walls),
	}
	if !cfg.Trace {
		return out, nil
	}
	var res paperResult
	r, err := spawnChild("paper", paperArgs{Variant: v, Spans: spansPath(cfg, "paper")}, &res)
	if err != nil {
		return nil, err
	}
	check(res)
	L := out.Layer
	L["paper_wall_s"] = median(walls)
	L["trace.overhead_ratio"] = r.Wall.Seconds() / median(walls)
	L["runpool.cpu_util"] = cpu / (sum(walls) * 2)
	L["market.cache_hits"] = float64(res.CacheHits)
	L["market.cache_misses"] = float64(res.CacheMisses)
	var render float64
	for _, e := range res.Entries {
		L["experiments."+e.Name+"_s"] = (e.RunMs + e.RenderMs) / 1000
		render += e.RenderMs
	}
	L["experiments.render_ms"] = render
	return out, nil
}

// checkExperimentNames fails when experimentNames no longer mirrors the
// experiments registry.
func checkExperimentNames() error {
	all := experiments.All()
	if len(all) != len(experimentNames) {
		return fmt.Errorf("experiments registry has %d entries, the benchmark knows %d", len(all), len(experimentNames))
	}
	for i, e := range all {
		if e.Name != experimentNames[i] {
			return fmt.Errorf("experiment %d is %q, the benchmark expects %q", i, e.Name, experimentNames[i])
		}
	}
	return nil
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
