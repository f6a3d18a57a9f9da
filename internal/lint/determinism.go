package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// deterministicPkgs are the packages whose outputs must be byte-identical
// across runs, shard layouts, async schedules and crash/recover cycles.
// Everything on the Resolve path that feeds a Result, a snapshot or a WAL
// record lives here — the pre-pipeline included: it decides the retained
// pairs, and with them every byte downstream.
var deterministicPkgs = []string{
	"repro/internal/blocking",
	"repro/internal/attrmatch",
	"repro/internal/strsim",
	"repro/internal/simvec",
	"repro/internal/core",
	"repro/internal/ergraph",
	"repro/internal/propagation",
	"repro/internal/selection",
	"repro/internal/partition",
	"repro/internal/session",
	"repro/internal/deduce",
}

func inDeterministicPkg(path string) bool {
	for _, p := range deterministicPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Determinism enforces the repo's order-independence guarantee at the
// construct level: in deterministic packages, values produced by ranging
// over a map must not become ordered or rounding-sensitive outputs, and
// wall-clock or globally-seeded randomness is forbidden.
//
// Flagged inside `for ... range m` where m is a map:
//   - appending to a slice declared outside the loop, unless the slice is
//     passed to a sort or slices ordering call later in the same function
//     (collect-then-sort is the blessed pattern);
//   - floating-point compound assignment (+=, -=, *=, /=): float
//     reduction order follows map iteration order, so the rounding — and
//     therefore the bytes — of the result would too;
//   - writing output (fmt printing, json.Encoder.Encode) per iteration;
//   - returning a value that mentions the iteration variables.
//
// Flagged anywhere in a deterministic package: time.Now/Since/Until and
// the globally-seeded top-level math/rand functions. Explicitly seeded
// generators (rand.New(rand.NewSource(seed))) remain available to the
// simulation packages (crowd, loadgen), which are out of scope.
var Determinism = &analysis.Analyzer{
	Name:  "determinism",
	Doc:   "flags map-iteration-order and wall-clock/random dependence in deterministic packages",
	Match: inDeterministicPkg,
	Run:   runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	if !pass.Reportable {
		return nil // exports no facts; nothing to do on out-of-scope packages
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkClockAndRand(pass, call)
			}
			return true
		})
	}
	funcBodies(pass, func(fd *ast.FuncDecl) {
		checkMapRanges(pass, fd)
	})
	return nil
}

// checkClockAndRand flags nondeterministic sources.
func checkClockAndRand(pass *analysis.Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods (e.g. on an explicitly seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			pass.Reportf(call.Pos(), "time.%s in a deterministic package: results must not depend on the wall clock", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return // constructing an explicitly seeded generator is deterministic
		}
		pass.Reportf(call.Pos(), "%s.%s uses the globally seeded random source in a deterministic package; thread an explicitly seeded *rand.Rand instead", fn.Pkg().Path(), fn.Name())
	}
}

// checkMapRanges audits every range-over-map loop in one function.
func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, fd, rng)
		return true
	})
}

func checkMapRangeBody(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	loopVars := rangeVarObjs(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, fd, rng, n)
		case *ast.CallExpr:
			if writesOutput(pass, n) {
				pass.Reportf(n.Pos(), "output written while ranging over a map: iteration order is random, so the emitted order is too; collect into a slice and sort first")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if mentionsAny(pass, res, loopVars) {
					pass.Reportf(n.Pos(), "returns a value derived from map-iteration variables: an arbitrary element wins; iterate sorted keys instead")
					break
				}
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		for _, lhs := range as.Lhs {
			if tv, ok := pass.TypesInfo.Types[lhs]; ok {
				switch underlyingBasic(tv.Type) {
				case types.Float32, types.Float64, types.Complex64, types.Complex128:
					pass.Reportf(as.Pos(), "floating-point accumulation in map-iteration order: rounding depends on the order %s is visited; accumulate over sorted keys", exprString(rng.X))
				}
			}
		}
	case token.ASSIGN, token.DEFINE:
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "append") || i >= len(as.Lhs) {
				continue
			}
			target, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.ObjectOf(target)
			if obj == nil || insideNode(obj.Pos(), rng.Body) {
				continue // per-iteration slice: order never leaves the iteration
			}
			if sortedAfter(pass, fd, rng, obj) {
				continue
			}
			pass.Reportf(as.Pos(), "appends to %s in map-iteration order with no later sort: the slice's order is random; sort it before it escapes", target.Name)
		}
	}
}

// rangeVarObjs returns the objects bound by the range statement.
func rangeVarObjs(pass *analysis.Pass, rng *ast.RangeStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

func mentionsAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// writesOutput reports whether call emits formatted output or JSON.
func writesOutput(pass *analysis.Pass, call *ast.CallExpr) bool {
	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch {
		case strings.HasPrefix(fn.Name(), "Print"),
			strings.HasPrefix(fn.Name(), "Fprint"):
			return true
		}
	}
	return isMethodCall(pass, call, "encoding/json", "Encoder", "Encode")
}

// sortedAfter reports whether obj is passed to a sort/slices ordering
// call after the loop ends, within the same function.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rng.End() || sorted {
			return !sorted
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// insideNode reports whether pos lies within n's extent.
func insideNode(pos token.Pos, n ast.Node) bool {
	return n.Pos() <= pos && pos < n.End()
}
