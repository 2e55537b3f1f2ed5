package lint

import (
	"go/ast"
	"go/types"
)

// StateCompleteAnalyzer enforces copy completeness. The sampling engine's
// fanout splits assume the copy of a leader into a member covers *every*
// mutable field of machine state: a field added without a copy does not fail
// a test — it splits off a machine that silently diverges from the run it
// claims to continue. This analyzer makes that a lint failure.
//
// Each registered state type (the registry below) names the functions that
// form its copy path. The analyzer enumerates the struct's fields via
// go/types and requires every one to be referenced by the path; a field
// that is derived, built by the workload stream's environment calls, or
// pure configuration is exempted — on the record — with
//
//	//spurlint:ignore statecomplete — <why this field needs no copy>
//
// on its declaration line.
var StateCompleteAnalyzer = &Analyzer{
	Name:       "statecomplete",
	Doc:        "every mutable field of registered state types is covered by its copy path",
	RunProgram: runStateComplete,
}

// stateFunc names one function of a copy path: a method (recv set) or
// package-level function declared in package pkg. An empty pkg means "the
// registered type's own package".
type stateFunc struct {
	pkg  string
	recv string
	name string
}

// stateReg is one registered state type and its copy path.
type stateReg struct {
	pkg string // import path of the package declaring the type
	typ string // struct type name

	// copy lists the functions that collectively must reference every
	// field (the analyzer requires a reference, not a direction — go/types
	// does not distinguish `copy(c.tags, src.tags)` from `x = c.tags`, and
	// either proves the author considered the field).
	copy []stateFunc
}

// stateRegistry is the full registration list: the machine-state types a
// fanout split copies from a leader into a member, and the machine
// assembly itself. Workload and proc generator state (workload.Script,
// proc.Scheduler, ...) is deliberately not registered: a member receives
// the leader's stream through multiEnv, and generation is a pure function
// of (spec, seed).
var stateRegistry = []stateReg{
	{pkg: "repro/internal/cache", typ: "Cache",
		copy: []stateFunc{{recv: "Cache", name: "CopyFrom"}}},
	{pkg: "repro/internal/vm", typ: "Pager",
		copy: []stateFunc{{recv: "Pager", name: "CopyFrom"}}},
	{pkg: "repro/internal/vm", typ: "region",
		copy: []stateFunc{{recv: "Pager", name: "CopyFrom"}}},
	{pkg: "repro/internal/mem", typ: "Pool",
		copy: []stateFunc{{recv: "Pool", name: "CopyFreeFrom"}}},
	{pkg: "repro/internal/counters", typ: "Set",
		copy: []stateFunc{{recv: "Set", name: "CopyFrom"}}},
	{pkg: "repro/internal/pte", typ: "Table",
		copy: []stateFunc{{recv: "Table", name: "CopyFrom"}}},
	{pkg: "repro/internal/machine", typ: "Machine",
		copy: []stateFunc{{pkg: "repro/internal/sample", name: "copyMachine"}}},
	{pkg: "repro/internal/core", typ: "Engine",
		copy: []stateFunc{{pkg: "repro/internal/sample", name: "copyMachine"}}},
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

		decls, names := resolveStateFuncs(p, byPath, reg)
		if len(decls) == 0 {
			continue // none of the path's packages are loaded, or all missing (reported)
		}
		fieldDecls := fieldDeclNodes(pkg, reg.typ)
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
			p.Reportf(pkg, node, "field %s of %s.%s is not copied by %s; a split member omitting it diverges — cover it, or annotate //spurlint:ignore statecomplete — <why it is derived, config, or built by the stream's environment calls>",
				f.Name(), pkg.Types.Name(), reg.typ, describeList(names))
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

// resolveStateFuncs locates the declarations of a copy path. A function
// whose declaring package is not loaded is skipped silently (a partial
// `spurlint ./internal/cache` run cannot see internal/sample); a function
// missing from a loaded package is a finding — the path the registry
// promises does not exist.
func resolveStateFuncs(p *ProgramPass, byPath map[string]*Package, reg stateReg) (decls []funcDeclIn, names []string) {
	for _, sf := range reg.copy {
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
			p.Reportf(tpkg, tpkg.Files[0].Name, "registered state type %s has no copy function %s in %s; copy coverage cannot be verified — restore it or update the statecomplete registry",
				reg.typ, funcDisplayName(sf), path)
			continue
		}
		decls = append(decls, funcDeclIn{pkg: pkg, decl: decl})
		names = append(names, funcDisplayName(sf))
	}
	return decls, names
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
// literal keys (dir{live: n}), and positional composite literals
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
