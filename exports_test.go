// Guard against test-only surface: every exported function or method and
// every unexported package-level function declared under internal/ must be
// reached from a non-test .go file in the repository (cmd/, examples/,
// spotbench/, the root and the internal packages themselves all count).
//
// The scan type-checks every non-test file that the default build context
// selects (build constraints apply, so race_on.go/race_off.go pairs do not
// collide) with go/types, importing the standard library from source. A
// declaration is reached when an identifier outside its own body resolves
// to exactly its *types.Func (generic instantiations through Origin), so
// calling one type's method does not reach a same-named method of another
// type. A method is also reached when its receiver implements an
// interface whose same-named method some file calls, or one of the
// standard-library hook interfaces that fmt, encoding and encoding/json
// call by interface (String, Error, MarshalText, ...). Any type error
// fails the guard, so deleting something a program calls cannot pass it.
package spothost

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// keptExports are declarations that no program reaches but that stay on
// purpose, keyed "pkgdir.Recv.Name" (or "pkgdir.Name"). An entry whose
// declaration a program starts reaching must be dropped.
var keptExports = map[string]string{
	"forecast.TrailingStd":              "reference oracle that cross-validates DecayingMoments",
	"sched.SetEnvelopeFastPath":         "switch that pits the envelope fast path against the slow path it must match",
	"fleet.SetEnvelopeFastPath":         "switch that pits the envelope fast path against the slow path it must match",
	"sim.Engine.SetCancelPollInterval":  "seam that makes cancellation latency observable at small scale",
	"vm.ForcedTimeline":                 "closed-form oracle for the forced-migration downtime model",
	"vm.NaiveRevocationTimeline":        "closed-form oracle for the naive revocation baseline",
	"econ.MaxTolerableUnavailability":   "the paper's break-even availability bound, pinned by the four-nines claim",
	"tpcw.OverheadReplicaRatio":         "the paper's Section 6 replica-overhead figure, pinned by its claim test",
	"sched.Scheduler.Phase":             "observes the scheduler's placement state machine",
	"sched.Scheduler.Stopped":           "observes that Stop took effect",
	"vm.CheckpointDaemon.FinalSaveTime": "observes the lazily advanced daemon's last write",
	"forecast.DecayingMoments.Primed":   "observes when the estimator starts answering",
	"metrics.RunSecondsBounds":          "names the bucket bounds that ServingStats.RunSecondsBuckets counts against",
	"market.Trace.NextChangeAfter":      "binary-search reference oracle for the cursor walks that find the next price change",
	"trace.Recorder.Spans":              "observes the span record that pins the scheduler's migration choreography",
	"sim.Engine.Pending":                "observes which events a provider or restore armed",
	"sim.Engine.Registered":             "observes that checkpoint daemons unregister their lazy processes",
	"vm.CheckpointDaemon.Snapshot":      "observes the daemon's write-cycle state against the event-driven reference",
	"cloud.Ledger.Entries":              "observes per-charge billing for conservation checks against per-instance charges",
	"sched.Portfolio.Provider":          "observes the shared provider whose ledger the services' costs must sum to",
}

// hookInterfaces are standard-library interfaces whose methods the
// standard library calls on user types by interface: a method that
// implements one is reached even though no scanned file calls it.
var hookInterfaces = [][2]string{
	{"", "error"},
	{"fmt", "Stringer"},
	{"fmt", "GoStringer"},
	{"fmt", "Formatter"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
	{"net/http", "Handler"},
}

func TestNoTestOnlyExports(t *testing.T) {
	unreached, declared, errs := scanUnreached(".", "spothost")
	for _, err := range errs {
		t.Error(err)
	}
	for _, k := range unreached {
		if keptExports[k] == "" {
			t.Errorf("%s: declared under internal/ but reached by no non-test file; delete it or give it a caller", k)
		}
	}
	stale := map[string]bool{}
	for k := range keptExports {
		stale[k] = true
	}
	for _, k := range unreached {
		delete(stale, k)
	}
	for k := range stale {
		if declared[k] {
			t.Errorf("keptExports lists %s, which a non-test file now reaches; drop the entry", k)
		} else {
			t.Errorf("keptExports lists %s, which is no longer declared", k)
		}
	}
}

// TestExportGuardFixture pins the guard's two type-aware rules on a small
// module under testdata/exportguard.
func TestExportGuardFixture(t *testing.T) {
	unreached, _, errs := scanUnreached("testdata/exportguard", "fixture")
	for _, err := range errs {
		t.Error(err)
	}
	// Voice.Name shares its name with the used Label.Name; Dog.Speak is
	// called only through the Speaker interface; helper is called only
	// from a test.
	want := []string{"animal.Voice.Name", "animal.helper"}
	if !reflect.DeepEqual(unreached, want) {
		t.Errorf("unreached = %v, want %v", unreached, want)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scanUnreached type-checks the non-test Go files under root, whose import
// paths start with modPath, and returns the sorted keys of the guarded
// declarations under root/internal that nothing outside their own body
// reaches, the set of every guarded key, and any parse or type errors.
func scanUnreached(root, modPath string) (unreached []string, declared map[string]bool, errs []error) {
	type pkg struct {
		dir   string
		files []*ast.File
		types *types.Package
	}
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{} // by import path
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		ip := modPath
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		if pkgs[ip] == nil {
			pkgs[ip] = &pkg{dir: filepath.ToSlash(rel)}
		}
		pkgs[ip].files = append(pkgs[ip].files, f)
		return nil
	})
	if err != nil {
		return nil, nil, []error{err}
	}

	std := importer.ForCompiler(fset, "source", nil)
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Error: func(err error) { errs = append(errs, err) }}
	conf.Importer = importerFunc(func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return std.Import(path)
		}
		if p.types == nil {
			p.types, _ = conf.Check(path, fset, p.files, info)
		}
		return p.types, nil
	})
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		conf.Importer.Import(path)
	}

	// Mark every function an identifier resolves to, except from inside
	// that function's own declaration, and collect the interface methods
	// that calls go through.
	used := map[*types.Func]bool{}
	ifaceMethods := map[*types.Func]bool{}
	for _, path := range paths {
		for _, f := range pkgs[path].files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					used[fn.Origin()] = true
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaceMethods[fn] = true
					}
					return true
				})
			}
		}
	}
	for _, h := range hookInterfaces {
		var obj types.Object
		if h[0] == "" {
			obj = types.Universe.Lookup(h[1])
		} else if p, err := std.Import(h[0]); err == nil {
			obj = p.Scope().Lookup(h[1])
		} else {
			errs = append(errs, err)
			continue
		}
		iface := obj.Type().Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			ifaceMethods[iface.Method(i)] = true
		}
	}
	viaInterface := func(fn *types.Func) bool {
		named, _ := types.Unalias(derefType(fn.Type().(*types.Signature).Recv().Type())).(*types.Named)
		for im := range ifaceMethods {
			if im.Name() != fn.Name() {
				continue
			}
			// Implements is unspecified for uninstantiated generic types.
			if named == nil || named.TypeParams().Len() > 0 {
				return true
			}
			iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	declared = map[string]bool{}
	for _, path := range paths {
		p := pkgs[path]
		pkgdir, ok := strings.CutPrefix(p.dir, "internal/")
		if !ok {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := fd.Name.Name
				if !fd.Name.IsExported() && (fd.Recv != nil || name == "init" || name == "_") {
					continue
				}
				fn, _ := info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				key := pkgdir + "." + name
				if fd.Recv != nil {
					key = pkgdir + "." + recvName(fd.Recv.List[0].Type) + "." + name
				}
				declared[key] = true
				if !used[fn] && (fd.Recv == nil || !viaInterface(fn)) {
					unreached = append(unreached, key)
				}
			}
		}
	}
	sort.Strings(unreached)
	return unreached, declared, errs
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
