package lint

import (
	"go/ast"
	"go/types"
)

// StateCompleteAnalyzer enforces snapshot completeness. The sampling
// engine's fanout splits assume Snapshot/Restore cover *every* mutable field
// of machine state: a field added without a snapshot path does not fail a
// test — it splits off a machine that silently diverges from the run it
// claims to continue. This analyzer makes that a lint failure.
//
// Each registered state type (the registry below) names the functions that
// form its snapshot path and its restore path. The analyzer enumerates the
// struct's fields via go/types and requires every one to be referenced by
// each path; a field that is derived, built by the workload stream's
// environment calls, or pure configuration is exempted — on the record — with
//
//	//spurlint:ignore statecomplete — <why this field needs no snapshot>
//
// on its declaration line. Registered snapshot records (MachineState,
// PagerState) get the mirrored check: every record field must be produced
// by the capture path and consumed by the restore path, and no record
// field may embed workload/proc generator state, which the snapshot
// contract rebuilds from the stream rather than copying.
var StateCompleteAnalyzer = &Analyzer{
	Name:       "statecomplete",
	Doc:        "every mutable field of registered state types is covered by its Snapshot/Restore pair",
	RunProgram: runStateComplete,
}

// stateFunc names one function of a snapshot or restore path: a method
// (recv set) or package-level function declared in package pkg. An empty
// pkg means "the registered type's own package".
type stateFunc struct {
	pkg  string
	recv string
	name string
}

// stateReg is one registered state type and its snapshot/restore paths.
type stateReg struct {
	pkg string // import path of the package declaring the type
	typ string // struct type name

	// snapshot and restore each list the functions that collectively must
	// reference every field (read on capture, write on restore; the
	// analyzer requires a reference, not a direction — go/types does not
	// distinguish `copy(c.tags, x)` from `x = c.tags`, and either proves
	// the author considered the field).
	snapshot []stateFunc
	restore  []stateFunc

	// record marks snapshot records (the structs a capture copies state
	// into) rather than live machine state; records additionally must not
	// embed replay-rebuilt generator types.
	record bool
}

// stateRegistry is the full registration list: the machine-state types
// whose Snapshot/Restore pairs the sampling engine's fanout splits depend
// on, the machine assembly itself, and the snapshot records. Workload and
// proc generator state (workload.Script, proc.Scheduler, ...) is
// deliberately NOT snapshot-registered: the snapshot
// contract rebuilds it by replaying the reference stream — a pure function
// of (spec, seed) — and the replayRebuilt list below enforces that those
// types never leak into a snapshot record.
var stateRegistry = []stateReg{
	{pkg: "repro/internal/cache", typ: "Cache",
		snapshot: []stateFunc{{recv: "Cache", name: "ExportState"}},
		restore:  []stateFunc{{recv: "Cache", name: "RestoreState"}}},
	{pkg: "repro/internal/vm", typ: "Pager",
		snapshot: []stateFunc{{recv: "Pager", name: "ExportState"}},
		restore:  []stateFunc{{recv: "Pager", name: "RestoreState"}}},
	{pkg: "repro/internal/vm", typ: "PagerState", record: true,
		snapshot: []stateFunc{{recv: "Pager", name: "ExportState"}},
		restore:  []stateFunc{{recv: "Pager", name: "RestoreState"}}},
	{pkg: "repro/internal/vm", typ: "PageState", record: true,
		snapshot: []stateFunc{{recv: "Pager", name: "ExportState"}},
		restore:  []stateFunc{{recv: "Pager", name: "RestoreState"}}},
	{pkg: "repro/internal/mem", typ: "Pool",
		snapshot: []stateFunc{{recv: "Pool", name: "ExportFree"}},
		restore:  []stateFunc{{recv: "Pool", name: "RestoreFree"}}},
	{pkg: "repro/internal/counters", typ: "Set",
		snapshot: []stateFunc{{recv: "Set", name: "Mode"}, {recv: "Set", name: "HardwareSnapshot"}, {recv: "Set", name: "Snapshot"}},
		restore:  []stateFunc{{recv: "Set", name: "Restore"}, {recv: "Set", name: "SetMode"}}},
	{pkg: "repro/internal/pte", typ: "Table",
		snapshot: []stateFunc{{recv: "Table", name: "Range"}},
		restore:  []stateFunc{{recv: "Table", name: "Set"}}},
	{pkg: "repro/internal/machine", typ: "Machine",
		snapshot: []stateFunc{{pkg: "repro/internal/sample", name: "Capture"}},
		restore:  []stateFunc{{pkg: "repro/internal/sample", name: "Restore"}}},
	{pkg: "repro/internal/core", typ: "Engine",
		snapshot: []stateFunc{{pkg: "repro/internal/sample", name: "Capture"}},
		restore:  []stateFunc{{pkg: "repro/internal/sample", name: "Restore"}}},
	{pkg: "repro/internal/sample", typ: "MachineState", record: true,
		snapshot: []stateFunc{{name: "Capture"}},
		restore:  []stateFunc{{name: "Restore"}}},
}

// replayRebuilt are the generator-state types the snapshot contract
// rebuilds by replaying the workload stream. Copying one of these into a
// snapshot record is a design error — its state is a pure function of
// (spec, seed), and carrying a copy invites divergence between the copy
// and the replay.
var replayRebuilt = map[[2]string]bool{
	{"repro/internal/workload", "Script"}:         true,
	{"repro/internal/workload", "Job"}:            true,
	{"repro/internal/workload", "SharedWorkload"}: true,
	{"repro/internal/workload", "SpriteHost"}:     true,
	{"repro/internal/workload", "RNG"}:            true,
	{"repro/internal/proc", "Scheduler"}:          true,
	{"repro/internal/proc", "Task"}:               true,
}

func runStateComplete(p *ProgramPass) {
	byPath := map[string]*Package{}
	for _, pkg := range p.Pkgs {
		byPath[pkg.Path] = pkg
	}
	for _, reg := range stateRegistry {
		pkg := byPath[reg.pkg]
		if pkg == nil {
			continue // partial load: the type's package is out of scope
		}
		named := lookupNamed(pkg, reg.typ)
		if named == nil {
			if pkg.FromModule {
				p.Reportf(pkg, pkg.Files[0].Name, "registered state type %s.%s not found; update the statecomplete registry in internal/lint if it was renamed or retired", pkg.Types.Name(), reg.typ)
			}
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			p.Reportf(pkg, pkg.Files[0].Name, "registered state type %s.%s is not a struct", pkg.Types.Name(), reg.typ)
			continue
		}

		fieldDecls := fieldDeclNodes(pkg, reg.typ)
		for _, path := range []struct {
			kind  string
			funcs []stateFunc
		}{{"snapshot", reg.snapshot}, {"restore", reg.restore}} {
			decls, names := resolveStateFuncs(p, byPath, reg, named, path.funcs)
			if len(decls) == 0 {
				continue // none of the path's packages are loaded, or all missing (reported)
			}
			refs := referencedFields(decls, named)
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if refs[f.Name()] {
					continue
				}
				node := fieldDecls[f.Name()]
				if node == nil {
					continue // embedded or synthesized; nothing to anchor to
				}
				what := "snapshotted"
				if path.kind == "restore" {
					what = "restored"
				}
				p.Reportf(pkg, node, "field %s of %s.%s is not %s by %s; a snapshot omitting it restores corrupt — cover it, or annotate //spurlint:ignore statecomplete — <why it is derived, config, or built by the stream's environment calls>",
					f.Name(), pkg.Types.Name(), reg.typ, what, describeList(names))
			}
		}

		if reg.record {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if leak := rebuiltLeak(f.Type()); leak != "" {
					if node := fieldDecls[f.Name()]; node != nil {
						p.Reportf(pkg, node, "snapshot record field %s embeds %s, which is generator state the workload stream rebuilds, never captured (see internal/sample.MachineState)", f.Name(), leak)
					}
				}
			}
		}
	}
}

// lookupNamed finds the named type typ declared in pkg, or nil.
func lookupNamed(pkg *Package, typ string) *types.Named {
	obj := pkg.Types.Scope().Lookup(typ)
	if obj == nil {
		return nil
	}
	named, _ := obj.Type().(*types.Named)
	return named
}

// fieldDeclNodes maps field names of struct type typ to their declaring
// idents, for anchoring findings (and their suppressions) to the field's
// own source line.
func fieldDeclNodes(pkg *Package, typ string) map[string]ast.Node {
	out := map[string]ast.Node{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != typ {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					out[name.Name] = name
				}
			}
			return false
		})
	}
	return out
}

// resolveStateFuncs locates the declarations of a snapshot/restore path.
// A function whose declaring package is not loaded is skipped silently (a
// partial `spurlint ./internal/cache` run cannot see internal/sample); a
// function missing from a loaded package is a finding — the path the
// registry promises does not exist.
func resolveStateFuncs(p *ProgramPass, byPath map[string]*Package, reg stateReg, named *types.Named, funcs []stateFunc) (decls []funcDeclIn, names []string) {
	for _, sf := range funcs {
		path := sf.pkg
		if path == "" {
			path = reg.pkg
		}
		pkg := byPath[path]
		if pkg == nil {
			continue
		}
		decl := findFuncDecl(pkg, sf.recv, sf.name)
		if decl == nil {
			tpkg := byPath[reg.pkg]
			p.Reportf(tpkg, tpkg.Files[0].Name, "registered state type %s has no %s function %s in %s; snapshot coverage cannot be verified — restore it or update the statecomplete registry",
				reg.typ, pathKindName(sf, reg), funcDisplayName(sf), path)
			continue
		}
		decls = append(decls, funcDeclIn{pkg: pkg, decl: decl})
		names = append(names, funcDisplayName(sf))
	}
	return decls, names
}

func pathKindName(sf stateFunc, reg stateReg) string {
	for _, s := range reg.snapshot {
		if s == sf {
			return "snapshot"
		}
	}
	return "restore"
}

func funcDisplayName(sf stateFunc) string {
	if sf.recv != "" {
		return sf.recv + "." + sf.name
	}
	return sf.name
}

// funcDeclIn is a function declaration paired with its package's type info.
type funcDeclIn struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// findFuncDecl finds the declaration of method recv.name (or package
// function name when recv is empty) in pkg.
func findFuncDecl(pkg *Package, recv, name string) *ast.FuncDecl {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Body == nil {
				continue
			}
			if (fd.Recv == nil) != (recv == "") {
				continue
			}
			if recv == "" || receiverTypeName(fd) == recv {
				return fd
			}
		}
	}
	return nil
}

// receiverTypeName returns the base type name of a method receiver.
func receiverTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		case *ast.IndexExpr:
			t = tt.X
		default:
			return ""
		}
	}
}

// referencedFields returns the names of named's fields referenced anywhere
// in the given function bodies: through selectors (m.Cache), composite
// literal keys (MachineState{PTE: p}), and positional composite literals
// (which reference the first len(elts) fields).
func referencedFields(decls []funcDeclIn, named *types.Named) map[string]bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	fieldObjs := map[types.Object]string{}
	for i := 0; i < st.NumFields(); i++ {
		fieldObjs[st.Field(i)] = st.Field(i).Name()
	}
	refs := map[string]bool{}
	for _, d := range decls {
		info := d.pkg.Info
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// Covers selector fields and keyed composite-literal
				// fields alike: go/types resolves both to the field Var.
				if name, ok := fieldObjs[info.ObjectOf(n)]; ok {
					refs[name] = true
				}
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if t == nil {
					return true
				}
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if t != named && !types.Identical(t, named) {
					return true
				}
				if len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := 0; i < len(n.Elts) && i < st.NumFields(); i++ {
							refs[st.Field(i).Name()] = true
						}
					}
				}
			}
			return true
		})
	}
	return refs
}

// rebuiltLeak reports whether t mentions a replay-rebuilt generator type,
// unwrapping pointers, slices, arrays and maps; it returns the offending
// type's display name, or "".
func rebuiltLeak(t types.Type) string {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Slice:
			t = tt.Elem()
		case *types.Array:
			t = tt.Elem()
		case *types.Map:
			if leak := rebuiltLeak(tt.Key()); leak != "" {
				return leak
			}
			t = tt.Elem()
		case *types.Named:
			obj := tt.Obj()
			if obj.Pkg() != nil && replayRebuilt[[2]string{obj.Pkg().Path(), obj.Name()}] {
				return obj.Pkg().Name() + "." + obj.Name()
			}
			return ""
		default:
			return ""
		}
	}
}
