package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
)

// ref.json holds the reference digests of the paper and sweep outputs for
// every input variant, recorded with `spotbench record` from the commit
// that introduced the benchmark. A later change that alters any rendered
// table or any sweep point fails the run's correctness check.
//
//go:embed ref.json
var refJSON []byte

type references struct {
	// Paper maps variant → experiment name → sha256 of the entry's
	// output as cmd/paperbench prints it; PaperAll is the digest of the
	// whole output.
	Paper    map[string]map[string]string `json:"paper"`
	PaperAll map[string]string            `json:"paper_all"`
	// Sweep maps variant → per-grid sha256 of sweep.Summary.Results.
	Sweep map[string][]string `json:"sweep"`
}

func loadRefs() references {
	var r references
	if err := json.Unmarshal(refJSON, &r); err != nil {
		panic(fmt.Sprintf("spotbench: embedded ref.json: %v", err))
	}
	return r
}

func paperRefs(variant int) (map[string]string, bool) {
	m, ok := loadRefs().Paper[strconv.Itoa(variant)]
	return m, ok && len(m) == len(experimentNames)
}

func sweepRefs(variant int) ([]string, bool) {
	s, ok := loadRefs().Sweep[strconv.Itoa(variant)]
	return s, ok && len(s) == len(sweepGrids)
}

// recordMain regenerates ref.json: `spotbench record -o spotbench/ref.json`.
// Run it only on a commit whose outputs are known good.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	outPath := fs.String("o", "spotbench/ref.json", "output file")
	fs.Parse(args)
	refs := references{
		Paper:    map[string]map[string]string{},
		PaperAll: map[string]string{},
		Sweep:    map[string][]string{},
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
		return 1
	}
	for v := 0; v < variants; v++ {
		key := strconv.Itoa(v)
		var pr paperResult
		if _, err := spawnChild("paper", paperArgs{Variant: v}, &pr); err != nil {
			return fail("%v", err)
		}
		refs.Paper[key] = map[string]string{}
		for _, e := range pr.Entries {
			if e.Err != "" {
				return fail("variant %d: %s: %s", v, e.Name, e.Err)
			}
			refs.Paper[key][e.Name] = e.Digest
		}
		refs.PaperAll[key] = pr.Digest
		var sr sweepResult
		if _, err := spawnChild("sweep", sweepArgs{Variant: v}, &sr); err != nil {
			return fail("%v", err)
		}
		for gi, g := range sr.Grids {
			if g.Err != "" {
				return fail("variant %d: grid %d: %s", v, gi, g.Err)
			}
			refs.Sweep[key] = append(refs.Sweep[key], g.Digest)
		}
		fmt.Fprintf(os.Stderr, "recorded variant %d\n", v)
	}
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		return fail("%v", err)
	}
	return 0
}
