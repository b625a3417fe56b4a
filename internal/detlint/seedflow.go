package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SeedFlow verifies that every RNG construction in the simulation core
// derives its seed through fleet.SplitSeed. PR 3 centralized seed
// arithmetic there — SplitSeed(base, domain, index) mixes the campaign
// seed, a domain string and an index through a full-avalanche finalizer
// so sibling streams are uncorrelated — but nothing stopped new code
// from reviving `seed+i`, an xor, or a literal reseed, all of which
// produce correlated or colliding streams across the fleet.
//
// At each simrand.New site — the simulation core's one generator — and
// each rand.NewSource / rand.NewPCG / (*rand.Rand).Seed site the seed
// expression must trace to one of:
//
//   - a fleet.SplitSeed call,
//   - a config field or function parameter (the caller already derived
//     it), or
//   - a local variable assigned from one of the above.
//
// Literal seeds, constant seeds, and raw arithmetic (`seed+i`,
// `seed^0x9e37`, shifts) are flagged. Calls to other helpers are
// trusted — the helper's own body is checked where it is defined.
var SeedFlow = &Analyzer{
	Name: "seedflow",
	Doc:  "require RNG seeds in simulation packages to derive from fleet.SplitSeed",
	Run:  runSeedFlow,
}

// seedConstructors are the math/rand (v1 and v2) constructors whose
// arguments are seeds.
var seedConstructors = map[string]bool{
	"NewSource": true,
	"NewPCG":    true,
}

func runSeedFlow(pass *Pass) {
	if !IsSimPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSeedFlowFunc(pass, fd)
		}
	}
}

func checkSeedFlowFunc(pass *Pass, fd *ast.FuncDecl) {
	// assigns records the last RHS assigned to each local, so a seed
	// routed through `base := fleet.SplitSeed(...)` traces back.
	assigns := map[types.Object]ast.Expr{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); ok {
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj != nil {
						assigns[obj] = n.Rhs[i]
					}
				}
			}
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
						for i, name := range vs.Names {
							if obj := pass.Info.Defs[name]; obj != nil {
								assigns[obj] = vs.Values[i]
							}
						}
					}
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		path := pkgPathOf(pass.Info, sel.X)
		if path == "math/rand" || path == "math/rand/v2" {
			if seedConstructors[sel.Sel.Name] {
				for _, arg := range call.Args {
					checkSeedExpr(pass, arg, assigns, "rand."+sel.Sel.Name)
				}
			}
			return true
		}
		if IsSimrandPackage(path) {
			if sel.Sel.Name == "New" {
				for _, arg := range call.Args {
					checkSeedExpr(pass, arg, assigns, "simrand.New")
				}
			}
			return true
		}
		// (*rand.Rand).Seed reseeds an owned generator in place.
		if fn, ok := pass.Info.Uses[sel.Sel].(*types.Func); ok && fn.Name() == "Seed" {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if ptr, ok := recv.Type().(*types.Pointer); ok {
					if named, ok := ptr.Elem().(*types.Named); ok &&
						named.Obj().Name() == "Rand" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "math/rand" {
						for _, arg := range call.Args {
							checkSeedExpr(pass, arg, assigns, "rand.Seed")
						}
					}
				}
			}
		}
		return true
	})
}

// checkSeedExpr reports seed expressions that do not trace to
// fleet.SplitSeed, a field, or a parameter.
func checkSeedExpr(pass *Pass, seed ast.Expr, assigns map[types.Object]ast.Expr, site string) {
	if why, bad := badSeed(pass, seed, assigns, map[types.Object]bool{}); bad {
		pass.Report(seed.Pos(), fmt.Sprintf(
			"seedflow: %s seed %s; derive it with fleet.SplitSeed(base, domain, index) so sibling streams stay uncorrelated", site, why))
	}
}

// badSeed classifies a seed expression. Only provably hand-rolled
// derivations are bad: constants, and arithmetic/xor/shift mixing.
// Selectors, parameters, and calls (fleet.SplitSeed above all) pass.
func badSeed(pass *Pass, x ast.Expr, assigns map[types.Object]ast.Expr, visiting map[types.Object]bool) (string, bool) {
	if tv, ok := pass.Info.Types[x]; ok && tv.Value != nil {
		return "is a constant", true
	}
	switch x := unparen(x).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
			token.XOR, token.OR, token.AND, token.AND_NOT, token.SHL, token.SHR:
			return fmt.Sprintf("is derived with raw %s arithmetic", x.Op), true
		}
		return "", false
	case *ast.UnaryExpr:
		return badSeed(pass, x.X, assigns, visiting)
	case *ast.CallExpr:
		// A conversion wraps its operand; any other call is trusted
		// (fleet.SplitSeed foremost — its result is the contract).
		if tv, ok := pass.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return badSeed(pass, x.Args[0], assigns, visiting)
		}
		return "", false
	case *ast.Ident:
		obj := pass.Info.Uses[x]
		if obj == nil {
			obj = pass.Info.Defs[x]
		}
		if obj == nil || visiting[obj] {
			return "", false
		}
		if rhs, ok := assigns[obj]; ok {
			visiting[obj] = true
			why, bad := badSeed(pass, rhs, assigns, visiting)
			if bad {
				return fmt.Sprintf("(via %s) %s", x.Name, why), true
			}
		}
		return "", false
	}
	return "", false
}
