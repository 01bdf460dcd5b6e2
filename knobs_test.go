package repro

import (
	"go/ast"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// keptKnobs is the allow-list of TestKnobsHaveSetters: exported fields of
// configuration structs under internal/ that no non-test file sets, each with
// the reason it stays a field anyway. An entry whose field gains a setter, or
// is no longer declared, fails the test too, so the list cannot rot.
var keptKnobs = map[string]string{
	"core.Options.Rand":          "paper feature: Algorithm 1 breaks find-closest ties at random (\"one of them is chosen randomly\")",
	"core.Options.RDMHRefUpdate": "paper feature: the reference-update ablation whose rows EXPERIMENTS.md reports",
	"collective.Config.Synth":    "paper feature: the library's per-world selection override, installed through repro.Configure",
	"collective.Config.Flight":   "test seam: isolates a world's execution profiles from the process-wide flight ring",
}

// TestKnobsHaveSetters keeps configuration honest: every exported field of an
// exported struct under internal/ whose name ends in Config, Options or Opts
// must be set by some non-test file of the checkout, or be listed in
// keptKnobs with its reason. A field with one value in use is a constant.
//
// A field counts as set by a keyed element of a composite literal of its
// struct (matched by package and type name), or by an assignment x.Field = …
// in a file that imports the declaring package; the package's own defaulting
// does not count. Like TestExportsHaveCallers the scan is syntactic: an
// assignment matches on the field name, and the scan sees no type aliases.
func TestKnobsHaveSetters(t *testing.T) {
	type knob struct{ key, importPath, field string }
	var knobs []knob
	keyed := map[string]bool{}                 // "pkg.Type.Field" -> set by a keyed literal
	assigned := map[string][]map[string]bool{} // field name -> import sets of files assigning x.Field

	walkGoFiles(t, func(file string, f *ast.File) {
		pkgOf := map[string]string{} // import name -> package name
		imports := map[string]bool{}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imports[p] = true
			name := path.Base(p)
			if imp.Name != nil {
				pkgOf[imp.Name.Name] = name
			} else {
				pkgOf[name] = name
			}
		}
		if strings.HasPrefix(file, "internal/") {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() {
						continue
					}
					if name := ts.Name.Name; !strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") && !strings.HasSuffix(name, "Opts") {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if id.IsExported() {
								knobs = append(knobs, knob{f.Name.Name + "." + ts.Name.Name + "." + id.Name, "repro/" + path.Dir(file), id.Name})
							}
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var typ string
				switch x := n.Type.(type) {
				case *ast.Ident:
					typ = f.Name.Name + "." + x.Name
				case *ast.SelectorExpr:
					if q, ok := x.X.(*ast.Ident); ok {
						typ = pkgOf[q.Name] + "." + x.Sel.Name
					}
				}
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok && typ != "" {
						if id, ok := kv.Key.(*ast.Ident); ok {
							keyed[typ+"."+id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						assigned[sel.Sel.Name] = append(assigned[sel.Sel.Name], imports)
					}
				}
			}
			return true
		})
	})
	if len(knobs) < 30 {
		t.Fatalf("scan found only %d configuration fields under internal/; is the test running at the repository root?", len(knobs))
	}

	seen := map[string]bool{}
	var unset, stale []string
	for _, k := range knobs {
		seen[k.key] = true
		set := keyed[k.key]
		for _, imports := range assigned[k.field] {
			set = set || imports[k.importPath]
		}
		_, kept := keptKnobs[k.key]
		switch {
		case !set && !kept:
			unset = append(unset, k.key)
		case set && kept:
			stale = append(stale, k.key)
		}
	}
	for key := range keptKnobs {
		if !seen[key] {
			stale = append(stale, key+" (no longer declared)")
		}
	}
	sort.Strings(unset)
	sort.Strings(stale)
	for _, key := range unset {
		t.Errorf("%s is a configuration field that no non-test file sets: make it a constant, or add it to keptKnobs with a reason", key)
	}
	for _, key := range stale {
		t.Errorf("%s is in keptKnobs but now has a setter (or is gone): remove the entry", key)
	}
}
