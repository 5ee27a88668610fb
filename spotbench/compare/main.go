// Command compare judges two sets of spotbench runs — a parent commit's
// and a change's — metric by metric and workload by workload, by the rule
// in NOTES.md. With -head omitted it reports one set's run-to-run spread
// against the bounds instead.
//
//	bash spotbench/collect.sh runs/base paper 1 2 3 4 5 6 8 9 10 11
//	(cd spotbench && go run ./compare -base ../runs/base -head ../runs/head)
//
// A run directory holds one file per run, named <workload>-<seed>.json,
// whose last line is the run's JSON result. Runs of the two sets pair up
// by workload and seed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"spothost/internal/stats"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics: no bound
}

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSet maps workload → seed → result.
type runSet map[string]map[int64]result

func load(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".json")
		i := strings.LastIndex(base, "-")
		if i < 0 {
			continue
		}
		seed, err := strconv.ParseInt(base[i+1:], 10, 64)
		if err != nil {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		wl := base[:i]
		if set[wl] == nil {
			set[wl] = map[int64]result{}
		}
		set[wl][seed] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no <workload>-<seed>.json runs", dir)
	}
	return set, nil
}

// quartiles returns Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), the rule the benchmark's spreads are judged by.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	v, err := stats.Percentile(xs, 50)
	if err != nil {
		return math.NaN()
	}
	return v
}

type summary struct {
	med, q1, q3 float64
	n           int
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{med: median(xs), q1: q1, q3: q3, n: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / math.Abs(s.med)
}

func values(runs map[int64]result, name string) (seeds []int64, xs []float64) {
	for seed := range runs {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	var kept []int64
	for _, s := range seeds {
		if m, ok := runs[s].Metrics[name]; ok {
			kept = append(kept, s)
			xs = append(xs, m.Value)
		}
	}
	return kept, xs
}

// verdict applies the rule: improved when the change wins at least nine
// tenths of the pairs and the medians differ by more than the parent's
// interquartile distance (or every change run beats every parent run);
// worse when the change's median is worse than the parent's by more than
// the bound; unresolved when the parent's own spread exceeds the bound;
// no worse otherwise. Per-layer metrics have no bound: they are improved,
// worse (the mirror of improved) or unchanged.
func verdict(d metricDef, base, head summary, bx, hx []float64, wins, losses, pairs int) string {
	sign := 1.0 // positive = better
	if d.Better == "lower" {
		sign = -1
	}
	diff := sign * (head.med - base.med)
	iqr := base.q3 - base.q1
	allBetter := len(bx) > 0 && len(hx) > 0
	for _, h := range hx {
		for _, b := range bx {
			if sign*(h-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case pairs > 0 && float64(wins) >= 0.9*float64(pairs) && diff > iqr, allBetter:
		return "improved"
	case d.Bound == 0 && pairs > 0 && float64(losses) >= 0.9*float64(pairs) && -diff > iqr:
		return "worse"
	case d.Bound == 0:
		return "unchanged"
	case -diff > d.Bound*math.Abs(base.med):
		return "worse"
	case base.spread() > d.Bound:
		return "unresolved"
	}
	return "no worse"
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g] n=%d", s.med, s.q1, s.q3, s.n)
}

func main() {
	baseDir := flag.String("base", "", "directory of the parent commit's runs")
	headDir := flag.String("head", "", "directory of the change's runs (omit to report spreads only)")
	benchPath := flag.String("bench", "../BENCHMARK.json", "BENCHMARK.json (metric directions and bounds)")
	flag.Parse()
	if *baseDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defs := append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...)

	base, err := load(*baseDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var head runSet
	if *headDir != "" {
		if head, err = load(*headDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	workloads := make([]string, 0, len(base))
	for wl := range base {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)

	bad := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	if head == nil {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian [q1–q3]\tspread\tbound\tstatus")
	} else {
		fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1–q3]\tchange median [q1–q3]\twins change/parent/tie\tparent spread\tbound\tverdict")
	}
	for _, wl := range workloads {
		for _, set := range []runSet{base, head} {
			for seed, r := range set[wl] {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(os.Stderr, "%s seed %d: incorrect run (%d of %d failed)\n", wl, seed, r.Failed, r.Attempted)
					bad = true
				}
			}
		}
		for _, d := range defs {
			bs, bx := values(base[wl], d.Name)
			if len(bx) == 0 {
				continue
			}
			b := summarize(bx)
			bound := "-"
			if d.Bound > 0 {
				bound = fmt.Sprintf("%.3g", d.Bound)
			}
			if head == nil {
				status := "ok"
				switch {
				case d.Bound == 0:
					status = "-"
				case b.spread() > d.Bound:
					status, bad = "OVER BOUND", true
				case b.spread() > d.Bound/3:
					status = "over a third"
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f\t%s\t%s\n", wl, d.Name, d.Unit, fmtSummary(b), b.spread(), bound, status)
				continue
			}
			_, hx := values(head[wl], d.Name)
			if len(hx) == 0 {
				continue
			}
			h := summarize(hx)
			sign := 1.0
			if d.Better == "lower" {
				sign = -1
			}
			var wins, losses, ties int
			for i, seed := range bs {
				hr, ok := head[wl][seed]
				if !ok {
					continue
				}
				hm, ok := hr.Metrics[d.Name]
				if !ok {
					continue
				}
				switch c := sign * (hm.Value - bx[i]); {
				case c > 0:
					wins++
				case c < 0:
					losses++
				default:
					ties++
				}
			}
			v := verdict(d, b, h, bx, hx, wins, losses, wins+losses+ties)
			if v == "worse" && d.Bound > 0 {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d/%d/%d\t%.3f\t%s\t%s\n",
				wl, d.Name, d.Unit, fmtSummary(b), fmtSummary(h), wins, losses, ties, b.spread(), bound, v)
		}
	}
	tw.Flush()
	if bad {
		os.Exit(1)
	}
}
