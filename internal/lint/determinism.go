package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeterminismAnalyzer enforces that simulation/model packages compute a pure
// function of their inputs: no wall-clock reads, no process-global or
// cryptographic randomness, no map iteration whose order can leak into
// results, and no durable state: a model package under internal/ may not
// import the journal or the result store, since persisting results is its
// callers' business (the root package's stored drivers, the server). These
// are correctness rules, not style: the parallel engine and the
// content-addressed experiment store both assume a spec replays
// byte-identically (see DESIGN.md, "Static analysis & determinism rules").
var DeterminismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global randomness, order-sensitive map iteration and durable state in model packages",
	Run:  runDeterminism,
}

// durablePackages persist state. The root package is a model package too,
// but its stored drivers memoize whole runs in the result store, so only
// model packages under internal/ are held to this list.
var durablePackages = map[string]bool{
	"repro/internal/journal":  true,
	"repro/internal/expstore": true,
}

// forbiddenTimeFuncs are the time package functions that read or depend on
// the wall clock / scheduler. Types like time.Duration remain fine: they
// carry configuration, they don't observe the environment.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

func runDeterminism(p *Pass) {
	if !p.InModelScope() {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if path == "crypto/rand" {
				p.Reportf(imp, "crypto/rand is nondeterministic by design; model code must draw from an explicitly seeded workload RNG")
			}
			if durablePackages[path] && strings.HasPrefix(p.Pkg.Path, "repro/internal/") {
				p.Reportf(imp, "%s keeps durable state; a model package returns results and leaves persisting them to its callers", path)
			}
		}
		var enclosing []*ast.FuncDecl
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				enclosing = append(enclosing, fd)
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				p.checkSelector(n)
			case *ast.RangeStmt:
				var fd *ast.FuncDecl
				for i := len(enclosing) - 1; i >= 0; i-- {
					if contains(enclosing[i], n) {
						fd = enclosing[i]
						break
					}
				}
				p.checkMapRange(n, fd)
			}
			return true
		})
	}
}

func (p *Pass) checkSelector(sel *ast.SelectorExpr) {
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		// Methods (time.Time.After, time.Duration.Round, ...) compute on
		// values already in hand; only the package-level functions
		// observe the environment.
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			p.Reportf(sel, "time.%s reads the wall clock; model code must be a pure function of its spec (results feed a content-addressed store)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewPCG, NewZipf, ...) take an
		// explicit seed or source and stay deterministic; the package-
		// level functions share one process-global, auto-seeded stream.
		if !strings.HasPrefix(fn.Name(), "New") {
			p.Reportf(sel, "global %s.%s shares one process-wide RNG stream; construct a seeded generator (workload.NewRNG / rand.New(rand.NewSource(seed))) instead", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange flags `range m` over a map when the loop body lets the
// (randomized) iteration order escape; see mapRangeHazard for the rules.
func (p *Pass) checkMapRange(rs *ast.RangeStmt, encl *ast.FuncDecl) {
	if hazard, why := mapRangeHazard(p.Pkg, rs, encl); hazard != nil {
		p.Reportf(hazard, "map iteration order is randomized, and this loop %s; iterate sorted keys, or annotate with //spurlint:ignore determinism — <why order cannot matter>", why)
	}
}

// mapRangeHazard inspects one range statement and returns the first node
// that lets the (randomized) map iteration order escape, with a description
// — or nil if the loop is order-independent. Hazards: writing state declared
// outside the loop, returning values built from the loop variables, sending
// on a channel, printing, or invoking a caller-supplied function with the
// loop variables. Order-independent bodies (pure lookups, building an
// unordered set) pass, as does the sorted-keys idiom itself: a body that
// only collects the keys into a slice the enclosing function then sorts.
// Shared by the per-package determinism check (which reports it directly)
// and the whole-program taint analyzer (which treats it as a taint source
// in any package).
func mapRangeHazard(pkg *Package, rs *ast.RangeStmt, encl *ast.FuncDecl) (ast.Node, string) {
	if isSortedKeyCollection(pkg, rs, encl) {
		return nil, ""
	}
	t := pkg.Info.TypeOf(rs.X)
	if t == nil {
		return nil, ""
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return nil, ""
	}

	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	info := pkg.Info

	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		id := rootIdent(e)
		if id == nil || id.Name == "_" {
			return nil, false
		}
		obj := info.ObjectOf(id)
		if obj == nil || loopVars[obj] {
			return nil, false
		}
		// An object declared inside the loop body is per-iteration state;
		// writes to it cannot leak order.
		if obj.Pos() >= rs.Body.Pos() && obj.Pos() <= rs.Body.End() {
			return nil, false
		}
		return obj, true
	}

	var hazard ast.Node
	var why string
	flag := func(n ast.Node, reason string) {
		if hazard == nil {
			hazard = n
			why = reason
		}
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if hazard != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj, ok := declaredOutside(lhs); ok {
					flag(n, "writes "+obj.Name()+" (declared outside the loop) in map order")
				}
			}
		case *ast.IncDecStmt:
			if obj, ok := declaredOutside(n.X); ok {
				flag(n, "updates "+obj.Name()+" (declared outside the loop) in map order")
			}
		case *ast.SendStmt:
			flag(n, "sends on a channel in map order")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if referencesAny(info, res, loopVars) {
					flag(n, "returns a value built from the loop variables; which entry wins depends on map order")
				}
			}
		case *ast.CallExpr:
			if isWriterCall(info, n) {
				flag(n, "emits output in map order")
				return false
			}
			// A caller-supplied function value invoked with the loop
			// variables observes the iteration order (the Range-callback
			// pattern).
			if id, ok := n.Fun.(*ast.Ident); ok {
				if v, isVar := info.ObjectOf(id).(*types.Var); isVar && v != nil {
					for _, arg := range n.Args {
						if referencesAny(info, arg, loopVars) {
							flag(n, "passes the loop variables to "+id.Name+", exposing map order to its callee")
						}
					}
				}
			}
		}
		return hazard == nil
	})

	return hazard, why
}

// isSortedKeyCollection recognizes the first half of the sorted-keys idiom:
//
//	for k := range m { keys = append(keys, k) }
//	sort.Slice(keys, ...)
//
// The body must be exactly one append of loop variables into a slice, and
// the enclosing function must pass that slice to a sort.* or slices.Sort*
// call — collecting keys and then *not* sorting them is still a finding.
func isSortedKeyCollection(pkg *Package, rs *ast.RangeStmt, encl *ast.FuncDecl) bool {
	if encl == nil || len(rs.Body.List) != 1 {
		return false
	}
	as, ok := rs.Body.List[0].(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	dst, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" {
		return false
	}
	if _, isBuiltin := pkg.Info.ObjectOf(call.Fun.(*ast.Ident)).(*types.Builtin); !isBuiltin {
		return false
	}
	if len(call.Args) < 2 {
		return false
	}
	if first, ok := call.Args[0].(*ast.Ident); !ok || pkg.Info.ObjectOf(first) != pkg.Info.ObjectOf(dst) {
		return false
	}
	obj := pkg.Info.ObjectOf(dst)
	if obj == nil {
		return false
	}

	sorted := false
	ast.Inspect(encl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		for _, path := range []string{"sort", "slices"} {
			fn := funcIn(pkg.Info, call.Fun, path)
			if fn == nil {
				continue
			}
			switch {
			case strings.HasPrefix(fn.Name(), "Sort"), fn.Name() == "Slice", fn.Name() == "Strings", fn.Name() == "Ints":
				if id, ok := unparen(call.Args[0]).(*ast.Ident); ok && pkg.Info.ObjectOf(id) == obj {
					sorted = true
				}
			}
		}
		return !sorted
	})
	return sorted
}

// isWriterCall reports whether the call prints or writes output (fmt print
// family, Write*/Encode methods).
func isWriterCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
	if !ok {
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && (strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
		return true
	}
	name := fn.Name()
	return fn.Type().(*types.Signature).Recv() != nil &&
		(strings.HasPrefix(name, "Write") || name == "Encode" || name == "Print")
}
