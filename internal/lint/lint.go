// Package lint is spurlint: a repo-specific static-analysis suite that turns
// the simulator's determinism and correctness conventions into checks.
//
// The whole system rests on one property: a run is a pure function of its
// canonical spec. The parallel engine replays cells in shuffled order and
// asserts byte-identical output; the experiment store content-addresses
// results by spec hash and serves them forever. Both assume that nothing in
// a model path reads the wall clock, consults a shared RNG stream, or leaks
// map iteration order into results. Nothing in the language enforces that —
// so spurlint does. See DESIGN.md, "Static analysis & determinism rules".
//
// Analyzers (each is also the <check> name the ignore directive takes):
//
//   - determinism: no wall-clock reads, global/crypto randomness, or
//     order-sensitive map iteration in simulation packages.
//   - policyexhaustive: switches on core.DirtyPolicy / core.RefPolicy cover
//     every declared constant or fail loudly in default.
//   - countersafe: size arithmetic goes through core.MiB; no silent 32-bit
//     truncation of 64-bit counters.
//   - errcheck: no discarded error returns in non-test code.
//   - goconfine: `go` statements only in packages allowed to own concurrency.
//   - hotpath: the designated probe/translate hot-path functions stay on
//     dense index-addressed structures — no map operations.
//   - taint: interprocedural determinism — the module-wide call graph is
//     walked and nondeterministic sources (wall clock, global RNG, escaping
//     map order) taint their transitive callers; a model-package call into
//     a tainted non-model function is a finding, reported with the chain.
//   - statecomplete: every mutable field of a registered state type is
//     covered by its copy path, or annotated with why it is
//     derived, configuration, or built by the stream's environment calls.
//   - lockconfine: in the concurrent packages, fields documented
//     `// guarded by mu` are only touched with that mutex held.
//
// A finding can be suppressed, with a recorded justification, by a comment
// on the offending line or the line above:
//
//	//spurlint:ignore <check> — <reason>
//
// The reason is mandatory and the check name must be one of the analyzers;
// malformed or unused directives are themselves findings, so suppressions
// cannot rot silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the analyzer that raised it, and a
// human-readable message.
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

// String formats the finding as file:line:col: check: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Check, f.Msg)
}

// Analyzer is one named check. Per-package analyzers set Run and see one
// package at a time; whole-program analyzers set RunProgram and see every
// loaded package at once (the call-graph and copy-completeness checks
// need cross-package facts no single Pass carries). An analyzer sets one or
// the other.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// ProgramPass is the whole-program context handed to Analyzer.RunProgram:
// every package of the load, type-checked against one shared importer, so
// objects resolved in one package are identical to the same objects seen
// from another.
type ProgramPass struct {
	Pkgs     []*Package
	analyzer *Analyzer
	runner   *Runner
}

// Reportf records a finding at node's position, attributed to pkg (whose
// ignore directives govern suppression).
func (p *ProgramPass) Reportf(pkg *Package, node ast.Node, format string, args ...any) {
	p.runner.report(pkg, node.Pos(), p.analyzer.Name, fmt.Sprintf(format, args...))
}

// sourceSuppressed reports whether a would-be taint source at pos in pkg is
// covered by an ignore directive for any of the named checks, marking the
// directive used. A recorded suppression ("this clock read is a deadline,
// not model state") stops taint propagation the same way it stops the
// direct finding.
func (p *ProgramPass) sourceSuppressed(pkg *Package, pos token.Pos, checks ...string) bool {
	position := p.runner.fset.Position(pos)
	for _, c := range checks {
		if pkg.ignores.suppress(position, c) {
			return true
		}
	}
	return false
}

// Pass is the per-(analyzer, package) context handed to Analyzer.Run.
type Pass struct {
	Pkg      *Package
	analyzer *Analyzer
	runner   *Runner
}

// Reportf records a finding at node's position. Suppression by ignore
// directive is applied centrally by the runner.
func (p *Pass) Reportf(node ast.Node, format string, args ...any) {
	p.runner.report(p.Pkg, node.Pos(), p.analyzer.Name, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of expr, or nil if untracked.
func (p *Pass) TypeOf(expr ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(expr)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// modelPackages are the simulation/model packages: code whose behavior must
// be a pure function of its inputs so that runs replay byte-identically.
// The server, client, parallel scheduler and CLIs live outside the model and
// may touch the clock and spawn goroutines; the model may not.
var modelPackages = map[string]bool{
	"repro":                    true,
	"repro/internal/addr":      true,
	"repro/internal/cache":     true,
	"repro/internal/coherence": true,
	"repro/internal/core":      true,
	"repro/internal/counters":  true,
	"repro/internal/machine":   true,
	"repro/internal/mem":       true,
	"repro/internal/pte":       true,
	"repro/internal/proc":      true,
	// The sampling engine's estimates are stored by content address and
	// its merged variants must equal solo runs bit for bit; a clock read
	// or map-order dependence anywhere in it breaks both.
	"repro/internal/sample":   true,
	"repro/internal/stats":    true,
	"repro/internal/timing":   true,
	"repro/internal/trace":    true,
	"repro/internal/vm":       true,
	"repro/internal/workload": true,
	"repro/internal/xlate":    true,
}

// InModelScope reports whether the package is simulation/model code.
func (p *Pass) InModelScope() bool { return modelPackages[p.Pkg.Path] }

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		PolicyExhaustiveAnalyzer,
		CounterSafeAnalyzer,
		ErrcheckAnalyzer,
		GoConfineAnalyzer,
		HotPathAnalyzer,
		TaintAnalyzer,
		StateCompleteAnalyzer,
		LockConfineAnalyzer,
	}
}

// checkNames returns the set of valid <check> names for ignore directives.
func checkNames() map[string]bool {
	m := make(map[string]bool)
	for _, a := range Analyzers() {
		m[a.Name] = true
	}
	return m
}

// Runner runs a set of analyzers over loaded packages and collects findings.
type Runner struct {
	Analyzers []*Analyzer
	fset      *token.FileSet
	findings  []Finding
}

// NewRunner returns a runner over the given analyzers (nil means all).
func NewRunner(fset *token.FileSet, analyzers []*Analyzer) *Runner {
	if analyzers == nil {
		analyzers = Analyzers()
	}
	return &Runner{Analyzers: analyzers, fset: fset}
}

func (r *Runner) report(pkg *Package, pos token.Pos, check, msg string) {
	p := r.fset.Position(pos)
	if pkg.ignores.suppress(p, check) {
		return
	}
	r.findings = append(r.findings, Finding{Pos: p, Check: check, Msg: msg})
}

// Run analyzes every package and returns all findings sorted by position.
// Malformed and unused ignore directives are reported as check "directive".
// Per-package analyzers run first, then whole-program analyzers over the
// complete load; unused-directive hygiene runs last so a directive consumed
// by any analyzer — including a program-level one — counts as used.
func (r *Runner) Run(pkgs []*Package) []Finding {
	valid := checkNames()
	for _, pkg := range pkgs {
		pkg.ignores = collectIgnores(r.fset, pkg.Files, valid)
		for _, bad := range pkg.ignores.malformed {
			r.findings = append(r.findings, bad)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range r.Analyzers {
			if a.Run != nil {
				a.Run(&Pass{Pkg: pkg, analyzer: a, runner: r})
			}
		}
	}
	for _, a := range r.Analyzers {
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Pkgs: pkgs, analyzer: a, runner: r})
		}
	}
	for _, pkg := range pkgs {
		for _, d := range pkg.ignores.unused(r.Analyzers) {
			r.findings = append(r.findings, Finding{
				Pos:   d.pos,
				Check: "directive",
				Msg:   fmt.Sprintf("unused ignore directive for %q: nothing to suppress here — delete it", d.check),
			})
		}
	}
	sort.Slice(r.findings, func(i, j int) bool {
		a, b := r.findings[i], r.findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return r.findings
}

// referencesAny reports whether expr mentions any of the given objects.
func referencesAny(info *types.Info, expr ast.Node, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent unwraps selectors, indexes, stars and parens down to the base
// identifier of an assignable expression (s.images[name] -> s), or nil.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// funcIn returns the *types.Func a selector or identifier call resolves to
// when it belongs to package path, else nil.
func funcIn(info *types.Info, fun ast.Expr, path string) *types.Func {
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.Ident:
		id = f
	default:
		return nil
	}
	fn, ok := info.ObjectOf(id).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != path {
		return nil
	}
	return fn
}

// basicKind returns the basic kind of t's underlying type, or InvalidKind.
func basicKind(t types.Type) types.BasicKind {
	if t == nil {
		return types.Invalid
	}
	if b, ok := t.Underlying().(*types.Basic); ok {
		return b.Kind()
	}
	return types.Invalid
}

// is64BitInt reports whether t is an integer type guaranteed 64 bits wide.
func is64BitInt(t types.Type) bool {
	switch basicKind(t) {
	case types.Int64, types.Uint64:
		return true
	}
	return false
}

// isNarrowInt reports whether t is an integer type of at most 32 bits.
func isNarrowInt(t types.Type) bool {
	switch basicKind(t) {
	case types.Int8, types.Int16, types.Int32, types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

// isIntish reports whether t is any integer type (including untyped int).
func isIntish(t types.Type) bool {
	k := basicKind(t)
	switch k {
	case types.Int, types.Int8, types.Int16, types.Int32, types.Int64,
		types.Uint, types.Uint8, types.Uint16, types.Uint32, types.Uint64,
		types.Uintptr, types.UntypedInt:
		return true
	}
	return false
}

// render formats an expression back to compact source form for messages.
func render(expr ast.Expr) string { return types.ExprString(expr) }

// describeList joins names for error messages: "A, B and C".
func describeList(names []string) string {
	switch len(names) {
	case 0:
		return ""
	case 1:
		return names[0]
	}
	return strings.Join(names[:len(names)-1], ", ") + " and " + names[len(names)-1]
}
