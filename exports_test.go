// Guard against test-only exported surface: every exported function or
// method declared under internal/ must be named by at least one non-test
// .go file in the repository (cmd/, examples/, spotbench/ and the internal
// packages themselves all count). The scan is identifier-level, without
// type checking: a package-level function is reached when a file names it
// through its package's import, or bare inside its own package; a method
// is reached when any file names its method name, so it shares
// reachability with every same-named method.
package spothost

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptExports are exported functions and methods that no program names but
// that stay on purpose, keyed "pkgdir.Recv.Name" (or "pkgdir.Name"). An
// entry whose export a program starts naming must be dropped.
var keptExports = map[string]string{
	"forecast.TrailingStd":              "reference oracle that cross-validates DecayingMoments",
	"sched.SetEnvelopeFastPath":         "switch that pits the envelope fast path against the slow path it must match",
	"fleet.SetEnvelopeFastPath":         "switch that pits the envelope fast path against the slow path it must match",
	"sim.Engine.SetCancelPollInterval":  "seam that makes cancellation latency observable at small scale",
	"vm.ForcedTimeline":                 "closed-form oracle for the forced-migration downtime model",
	"vm.NaiveRevocationTimeline":        "closed-form oracle for the naive revocation baseline",
	"econ.MaxTolerableUnavailability":   "the paper's break-even availability bound, pinned by the four-nines claim",
	"tpcw.OverheadReplicaRatio":         "the paper's Section 6 replica-overhead figure, pinned by its claim test",
	"market.ID.MarshalText":             "encoding.TextMarshaler: JSON map keys and fields call it by interface",
	"market.ID.UnmarshalText":           "encoding.TextUnmarshaler: JSON map keys and fields call it by interface",
	"sched.Scheduler.Phase":             "observes the scheduler's placement state machine",
	"sched.Scheduler.Stopped":           "observes that Stop took effect",
	"vm.CheckpointDaemon.FinalSaveTime": "observes the lazily advanced daemon's last write",
	"forecast.DecayingMoments.Primed":   "observes when the estimator starts answering",
	"sched.Scheduler.EventsOf":          "filters the scheduler's event log by kind",
	"metrics.RunSecondsBounds":          "names the bucket bounds that ServingStats.RunSecondsBuckets counts against",
}

func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, ref string // ref is the key a reference marks: "pkg.Name" or ".Name" for methods
		ident    *ast.Ident
	}
	type file struct {
		pkg string            // package directory under internal/, "" elsewhere
		imp map[string]string // local import name -> package directory under internal/
		ast *ast.File
	}
	fset := token.NewFileSet()
	var decls []decl
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fl := file{imp: map[string]string{}, ast: f}
		if dir := filepath.ToSlash(filepath.Dir(path)); strings.HasPrefix(dir, "internal/") {
			fl.pkg = strings.TrimPrefix(dir, "internal/")
		}
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			dir, ok := strings.CutPrefix(ip, "spothost/internal/")
			if !ok {
				continue
			}
			local := filepath.Base(dir)
			if is.Name != nil {
				local = is.Name.Name
			}
			fl.imp[local] = dir
		}
		files = append(files, fl)
		if fl.pkg == "" {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			dc := decl{key: fl.pkg + "." + fn.Name.Name, ref: fl.pkg + "." + fn.Name.Name, ident: fn.Name}
			if fn.Recv != nil {
				dc.key = fl.pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				dc.ref = "." + fn.Name.Name
			}
			decls = append(decls, dc)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	own := make(map[*ast.Ident]bool, len(decls))
	for _, d := range decls {
		own[d.ident] = true
	}
	// A package-level function is reached through its package's import
	// name, or bare from its own package; a method by its name anywhere.
	used := make(map[string]bool)
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok && f.imp[id.Name] != "" {
					used[f.imp[id.Name]+"."+x.Sel.Name] = true
				}
			case *ast.Ident:
				if !own[x] {
					used["."+x.Name] = true
					if f.pkg != "" {
						used[f.pkg+"."+x.Name] = true
					}
				}
			}
			return true
		})
	}

	var unused []string
	declared := make(map[string]bool, len(decls))
	for _, d := range decls {
		declared[d.key] = true
		switch kept := keptExports[d.key] != ""; {
		case !used[d.ref] && !kept:
			unused = append(unused, d.key)
		case used[d.ref] && kept:
			t.Errorf("keptExports lists %s, which a non-test file now names; drop the entry", d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s: exported under internal/ but named by no non-test file; delete it or give it a caller", k)
	}
	for k := range keptExports {
		if !declared[k] {
			t.Errorf("keptExports lists %s, which is no longer declared", k)
		}
	}
}

func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
