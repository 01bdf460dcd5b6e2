package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptExports is the allow-list of TestExportsHaveCallers: exported names
// under internal/ that no non-test file mentions, each with the reason it
// stays anyway (the verdict table in CHANGES.md, PR 23). An entry whose name
// gains a caller fails the test too, so the list cannot rot.
var keptExports = map[string]string{
	"core.Optimal":     "reference tests compare against: brute-force optimum bounding every heuristic",
	"core.PatternCost": "reference tests compare against: the cost Optimal minimises",

	"graph.Graph.CutWeight": "reference tests compare against: cut quality of Bisect",

	"experiments.AdaptivePolicy":    "documented experiment driver exercised by its test (EXPERIMENTS.md)",
	"experiments.AlltoallSchedules": "documented experiment driver exercised by its test (EXPERIMENTS.md)",
	"experiments.TrafficCSV":        "documented experiment driver exercised by its test (README)",

	"hwdisc.LoadOrDiscover": "paper feature: Section IV's \"extracted once, and saved\"",

	"mpi.Comm.SendRecv": "MPI surface DESIGN §1's substitution table promises",
	"mpi.Comm.Dup":      "MPI surface DESIGN §1's substitution table promises",
	"mpi.Comm.SetInfo":  "MPI surface DESIGN §1's substitution table promises",

	"mpi.Stats.Messages":               "observation point tests read: messages per (src, dst) pair",
	"mpi.Stats.PairBytes":              "observation point tests read: bytes per (src, dst) pair",
	"sched.CompileCacheCounters":       "observation point tests read: compile-cache hits and misses",
	"sched.Family.BuilderNames":        "observation point tests read: every registered builder of a family",
	"sched.Schedule.TotalBlocksMoved":  "observation point tests read: traffic volume of a schedule",
	"simnet.Machine.MaxStageLinkLoads": "observation point tests read: peak per-stage link load, by the pricing pass's own accounting",
	"synth.TableCounters":              "observation point tests read: synth-table hits and misses",
	"obs.SetWatchdogDumpDir":           "observation point tests read: where the watchdog writes its dump",
	"obs.LastWatchdogDump":             "observation point tests read: path of the last watchdog dump",

	"obs.Profile.MarshalJSON":   "called through encoding/json's Marshaler interface, never by name",
	"obs.Profile.UnmarshalJSON": "called through encoding/json's Unmarshaler interface, never by name",
}

// TestExportsHaveCallers is ROADMAP item 8's scan as a tier-1 test: every
// exported func, method, type, var and const declared under internal/ must be
// mentioned in some non-test .go file of the checkout (internal/, cmd/,
// examples/, bench/, the root package) other than at a declaration of that
// name, or be listed in keptExports with its reason.
//
// The scan is name-based, like the re-anchor scan it replaces: it compares
// bare identifiers and does no type checking, so two packages exporting the
// same name vouch for each other and a method is "called" when any method of
// that name is. That is deliberately cheap (go/parser and go/ast only); it
// catches an export stranded by a refactor, not every dead one.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct{ key, name string }
	var decls []decl
	declSites := map[string]int{} // bare name -> top-level declarations of it
	mentions := map[string]int{}  // bare name -> identifier occurrences

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // .git, .bench_build (a Go module cache), ...
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
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declare := func(id *ast.Ident, recv string) {
			declSites[id.Name]++
			if internal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + recv + id.Name, id.Name})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv = receiverName(d.Recv.List[0].Type) + "."
				}
				declare(d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id, "")
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 500 {
		t.Fatalf("scan found only %d exported declarations under internal/; is the test running at the repository root?", len(decls))
	}

	seen := map[string]bool{}
	var stranded, stale []string
	for _, d := range decls {
		seen[d.key] = true
		called := mentions[d.name] > declSites[d.name]
		_, kept := keptExports[d.key]
		switch {
		case !called && !kept:
			stranded = append(stranded, d.key)
		case called && kept:
			stale = append(stale, d.key)
		}
	}
	for key := range keptExports {
		if !seen[key] {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(stranded)
	sort.Strings(stale)
	for _, key := range stranded {
		t.Errorf("%s is exported but no non-test file mentions it: delete it, unexport it, or add it to keptExports with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("%s is in keptExports but now has a caller (or is gone): remove the entry", key)
	}
}

// receiverName returns the type name of a method receiver expression,
// stripping the pointer and any type parameters.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
