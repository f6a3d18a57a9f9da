package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// csrPkgs are the packages built around int32 CSR indices. The flattened
// graph representation keys everything by dense int32 vertex and edge
// ids; hashing those ids into word-sized map keys doubles the key
// memory and reintroduces the map lookups the CSR refactor removed.
var csrPkgs = []string{
	"repro/internal/blocking",
	"repro/internal/simvec",
	"repro/internal/core",
	"repro/internal/ergraph",
	"repro/internal/propagation",
	"repro/internal/partition",
	"repro/internal/selection",
}

func inCSRPkg(path string) bool {
	for _, p := range csrPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// IndexTypes polices the boundary between the CSR's narrow indices and
// Go's word-sized int:
//
//   - Rule A: indexing a map whose key type is plain int with a widened
//     narrow integer (m[int(x)] where x is an int32 CSR index). The
//     widening is a smell that a dense structure was replaced by a
//     hash map keyed by vertex id; key the map by the narrow type or —
//     better — index a slice.
//
//   - Rule B: declaring map[int]float64. Dense float accumulators keyed
//     by vertex/cluster id were the repeated regression shape before the
//     CSR refactor; a []float64 indexed by the id is smaller, faster and
//     iterates deterministically. Maps keyed by a narrow integer
//     (map[int32]float64 — the oracle's sparse distance overlays) or by
//     a defined type are deliberate choices and pass.
var IndexTypes = &analysis.Analyzer{
	Name:  "indextypes",
	Doc:   "flags int32 CSR indices widened into int map keys and map[int]float64 accumulators",
	Match: inCSRPkg,
	Run:   runIndexTypes,
}

// narrowInt reports whether t is a ≤32-bit integer (named or not).
func narrowInt(t types.Type) bool {
	switch underlyingBasic(t) {
	case types.Int8, types.Int16, types.Int32,
		types.Uint8, types.Uint16, types.Uint32:
		return true
	}
	return false
}

func runIndexTypes(pass *analysis.Pass) error {
	if !pass.Reportable {
		return nil // exports no facts
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				checkWidenedKey(pass, n)
			case *ast.MapType:
				checkIntFloatMap(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkWidenedKey implements Rule A.
func checkWidenedKey(pass *analysis.Pass, idx *ast.IndexExpr) {
	tv, ok := pass.TypesInfo.Types[idx.X]
	if !ok {
		return
	}
	m, ok := tv.Type.Underlying().(*types.Map)
	if !ok || !isUnnamedBasic(m.Key(), types.Int) {
		return
	}
	conv, ok := ast.Unparen(idx.Index).(*ast.CallExpr)
	if !ok || len(conv.Args) != 1 {
		return
	}
	ctv, ok := pass.TypesInfo.Types[conv.Fun]
	if !ok || !ctv.IsType() || !isUnnamedBasic(ctv.Type, types.Int) {
		return
	}
	atv, ok := pass.TypesInfo.Types[conv.Args[0]]
	if !ok || atv.Value != nil || !narrowInt(atv.Type) {
		return
	}
	pass.Reportf(idx.Index.Pos(), "%s CSR index widened to an int map key: key the map by %s or index a dense slice instead", atv.Type, atv.Type)
}

// checkIntFloatMap implements Rule B.
func checkIntFloatMap(pass *analysis.Pass, mt *ast.MapType) {
	ktv, ok := pass.TypesInfo.Types[mt.Key]
	if !ok || !ktv.IsType() || !isUnnamedBasic(ktv.Type, types.Int) {
		return
	}
	vtv, ok := pass.TypesInfo.Types[mt.Value]
	if !ok || !vtv.IsType() || !isUnnamedBasic(vtv.Type, types.Float64) {
		return
	}
	pass.Reportf(mt.Pos(), "map[int]float64 over dense CSR indices: use a []float64 indexed by the id (smaller, faster, deterministic iteration) or key by the narrow index type")
}
