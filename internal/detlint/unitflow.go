package detlint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitFlow is a units-of-measure dataflow check over the link-budget
// arithmetic. The codebase encodes units in names — SINRdB, RSRPdBm,
// noiseMW, CarrierFreqMHz, SCSkHz, optimismLin — and the PHY math mixes
// log-domain (dB, dBm), linear power (mW), frequency (Hz, kHz, MHz) and
// dimensionless linear factors. A wrong `+` between a dBm field and a
// mW field compiles silently and skews every KPI downstream; this
// analyzer makes the convention load-bearing.
//
// Units are seeded from identifier/field/parameter suffixes and
// propagated through assignments, so an unnamed local inherits the unit
// of its initializer. A value with no derivable unit can be annotated:
//
//	//detlint:unit dBm
//	rsrp, cell := strongestSite(...)
//
// The directive covers its own line and the line below and applies to
// every declared variable there that has no unit suffix of its own.
// Known dimensions: dB, dBm, mW, Hz, kHz, MHz, linear.
//
// Flagged patterns:
//
//   - adding/subtracting across unit families (dB + mW, dBm + Hz);
//   - adding two absolute powers in the log domain (dBm + dBm);
//   - mixing frequency scales in one expression (MHz + kHz);
//   - comparing or assigning incompatible units (dBm vs dB, MHz vs kHz);
//   - passing an argument whose unit contradicts the parameter's name
//     suffix (kHz value into a ...MHz parameter);
//   - double-applied conversions: 10^(x/10) (math.Pow or phy.DBToLinear)
//     of an already-linear value, or log10 of a log-domain value.
//
// dBm ± dB (offsetting an absolute level) and dBm − dBm (a level
// difference, yielding dB) are the correct idioms and stay silent.
var UnitFlow = &Analyzer{
	Name: "unitflow",
	Doc:  "check units-of-measure consistency derived from naming conventions and //detlint:unit directives",
	Run:  runUnitFlow,
}

// unit is one of the tracked dimensions.
type unit uint8

const (
	unitUnknown unit = iota
	unitDB           // relative decibels
	unitDBm          // absolute power, dB-milliwatts
	unitMW           // linear power, milliwatts
	unitHz           // frequency, hertz
	unitKHz          // frequency, kilohertz
	unitMHz          // frequency, megahertz
	unitLin          // dimensionless linear factor
)

func (u unit) String() string {
	switch u {
	case unitDB:
		return "dB"
	case unitDBm:
		return "dBm"
	case unitMW:
		return "mW"
	case unitHz:
		return "Hz"
	case unitKHz:
		return "kHz"
	case unitMHz:
		return "MHz"
	case unitLin:
		return "linear"
	}
	return "unknown"
}

// unitFamily groups units whose members may legally meet in + and −.
type unitFamily uint8

const (
	famNone unitFamily = iota
	famLog             // dB, dBm: log-domain levels and offsets
	famMW              // linear power
	famFreq            // Hz, kHz, MHz
	famLin             // dimensionless
)

func (u unit) family() unitFamily {
	switch u {
	case unitDB, unitDBm:
		return famLog
	case unitMW:
		return famMW
	case unitHz, unitKHz, unitMHz:
		return famFreq
	case unitLin:
		return famLin
	}
	return famNone
}

// unitDims maps //detlint:unit directive spellings to units.
var unitDims = map[string]unit{
	"dB":     unitDB,
	"dBm":    unitDBm,
	"mW":     unitMW,
	"Hz":     unitHz,
	"kHz":    unitKHz,
	"MHz":    unitMHz,
	"linear": unitLin,
}

// unitFromName derives a unit from an identifier's suffix (or, for
// short parameter names, the whole name). Longer suffixes are tested
// first so RSRPdBm is dBm, not dB, and SCSkHz is kHz, not Hz.
func unitFromName(name string) unit {
	switch strings.ToLower(name) {
	case "db":
		return unitDB
	case "dbm":
		return unitDBm
	case "mw":
		return unitMW
	case "hz":
		return unitHz
	case "khz":
		return unitKHz
	case "mhz":
		return unitMHz
	case "lin":
		return unitLin
	}
	switch {
	case strings.HasSuffix(name, "dBm") || strings.HasSuffix(name, "DBm"):
		return unitDBm
	case strings.HasSuffix(name, "dB") || strings.HasSuffix(name, "DB"):
		return unitDB
	case strings.HasSuffix(name, "MHz"):
		return unitMHz
	case strings.HasSuffix(name, "kHz") || strings.HasSuffix(name, "KHz"):
		return unitKHz
	case strings.HasSuffix(name, "Hz"):
		return unitHz
	case strings.HasSuffix(name, "mW") || strings.HasSuffix(name, "MW"):
		return unitMW
	case strings.HasSuffix(name, "Lin") || strings.HasSuffix(name, "Linear"):
		return unitLin
	}
	return unitUnknown
}

// unitPrefix is the directive marker for annotating unnamed locals:
//
//	//detlint:unit dBm
const unitPrefix = "detlint:unit"

// unitDirective is one parsed //detlint:unit annotation.
type unitDirective struct {
	dim  unit
	line int
	pos  token.Pos
	used bool
}

// parseUnitDirectives extracts //detlint:unit directives from a file;
// unknown or missing dimensions are diagnostics.
func parseUnitDirectives(pass *Pass, file *ast.File) []*unitDirective {
	var ds []*unitDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//"+unitPrefix)
			if !ok || (text != "" && text[0] != ' ' && text[0] != '\t') {
				continue
			}
			fields := strings.Fields(text)
			if len(fields) == 0 {
				pass.Report(c.Pos(), "unitflow: malformed //detlint:unit: missing dimension (dB, dBm, mW, Hz, kHz, MHz, linear)")
				continue
			}
			dim, ok := unitDims[fields[0]]
			if !ok {
				pass.Report(c.Pos(), fmt.Sprintf(
					"unitflow: unknown dimension %q in //detlint:unit (known: dB, dBm, mW, Hz, kHz, MHz, linear)", fields[0]))
				continue
			}
			ds = append(ds, &unitDirective{
				dim:  dim,
				line: pass.Fset.Position(c.Pos()).Line,
				pos:  c.Pos(),
			})
		}
	}
	return ds
}

// unitEnv resolves expression units for one package.
type unitEnv struct {
	pass *Pass
	// explicit holds //detlint:unit-annotated variables and fields.
	explicit map[types.Object]unit
	// inferred holds units propagated through assignments.
	inferred map[types.Object]unit
}

// unitOfObj resolves a variable/constant unit: directive first, then
// name suffix, then dataflow inference.
func (e *unitEnv) unitOfObj(obj types.Object) unit {
	if obj == nil {
		return unitUnknown
	}
	if u, ok := e.explicit[obj]; ok {
		return u
	}
	if u := unitFromName(obj.Name()); u != unitUnknown {
		return u
	}
	return e.inferred[obj]
}

// declaredUnit resolves the unit an lvalue claims via its name or a
// directive — dataflow inference is deliberately excluded, so only
// stated intent participates in assignment checks.
func (e *unitEnv) declaredUnit(x ast.Expr) unit {
	switch x := x.(type) {
	case *ast.Ident:
		obj := e.pass.Info.Defs[x]
		if obj == nil {
			obj = e.pass.Info.Uses[x]
		}
		if obj == nil {
			return unitUnknown
		}
		if u, ok := e.explicit[obj]; ok {
			return u
		}
		return unitFromName(obj.Name())
	case *ast.SelectorExpr:
		obj := e.pass.Info.Uses[x.Sel]
		if _, ok := obj.(*types.Var); !ok {
			return unitUnknown
		}
		if u, ok := e.explicit[obj]; ok {
			return u
		}
		return unitFromName(obj.Name())
	case *ast.IndexExpr:
		return e.declaredUnit(x.X)
	case *ast.ParenExpr:
		return e.declaredUnit(x.X)
	}
	return unitUnknown
}

// unitOf infers the unit of an arbitrary expression.
func (e *unitEnv) unitOf(x ast.Expr) unit {
	switch x := x.(type) {
	case *ast.ParenExpr:
		return e.unitOf(x.X)
	case *ast.Ident:
		obj := e.pass.Info.Uses[x]
		if obj == nil {
			obj = e.pass.Info.Defs[x]
		}
		switch obj.(type) {
		case *types.Var, *types.Const:
			return e.unitOfObj(obj)
		}
		return unitUnknown
	case *ast.SelectorExpr:
		obj := e.pass.Info.Uses[x.Sel]
		switch obj.(type) {
		case *types.Var, *types.Const:
			return e.unitOfObj(obj)
		}
		return unitUnknown
	case *ast.IndexExpr:
		return e.unitOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return e.unitOf(x.X)
		}
		return unitUnknown
	case *ast.BinaryExpr:
		return e.unitOfBinary(x)
	case *ast.CallExpr:
		return e.unitOfCall(x)
	}
	return unitUnknown
}

// unitOfBinary infers the result unit of an arithmetic expression.
func (e *unitEnv) unitOfBinary(be *ast.BinaryExpr) unit {
	ux, uy := e.unitOf(be.X), e.unitOf(be.Y)
	switch be.Op {
	case token.ADD, token.SUB:
		if ux == unitUnknown || uy == unitUnknown {
			return unitUnknown
		}
		if ux == uy {
			if ux == unitDBm {
				if be.Op == token.SUB {
					return unitDB // level difference
				}
				return unitUnknown // dBm + dBm is flagged, no meaningful unit
			}
			return ux
		}
		// dBm offset by a dB gain/loss stays an absolute level.
		if (ux == unitDBm && uy == unitDB) || (ux == unitDB && uy == unitDBm && be.Op == token.ADD) {
			return unitDBm
		}
		return unitUnknown
	case token.MUL:
		if u := e.tenLog10Unit(be); u != unitUnknown {
			return u
		}
		if (ux == unitMW && uy == unitLin) || (ux == unitLin && uy == unitMW) {
			return unitMW
		}
		if ux == unitLin && uy == unitLin {
			return unitLin
		}
		return unitUnknown
	case token.QUO:
		if ux != unitUnknown && ux == uy {
			return unitLin // ratio of like quantities
		}
		if ux == unitMW && uy == unitLin {
			return unitMW
		}
		return unitUnknown
	}
	return unitUnknown
}

// tenLog10Unit recognizes the 10*math.Log10(x) conversion idiom and
// returns dBm for linear power input, dB for a linear ratio.
func (e *unitEnv) tenLog10Unit(be *ast.BinaryExpr) unit {
	var call *ast.CallExpr
	if isConstTen(e.pass.Info, be.X) {
		call, _ = unparen(be.Y).(*ast.CallExpr)
	} else if isConstTen(e.pass.Info, be.Y) {
		call, _ = unparen(be.X).(*ast.CallExpr)
	}
	if call == nil || !isMathCall(e.pass.Info, call, "Log10") || len(call.Args) != 1 {
		return unitUnknown
	}
	switch e.unitOf(call.Args[0]) {
	case unitMW:
		return unitDBm
	case unitLin:
		return unitDB
	}
	return unitUnknown
}

// unitOfCall infers a unit from conversions, the math helpers, and
// callee name suffixes (b.CenterMHz() is MHz).
func (e *unitEnv) unitOfCall(call *ast.CallExpr) unit {
	if tv, ok := e.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return e.unitOf(call.Args[0]) // conversion preserves the unit
	}
	if num := toLinearArg(e.pass.Info, call); num != nil {
		switch e.unitOf(num) {
		case unitDBm:
			return unitMW
		case unitDB:
			return unitLin
		}
		return unitUnknown
	}
	if isMathCall(e.pass.Info, call, "Abs") && len(call.Args) == 1 {
		return e.unitOf(call.Args[0])
	}
	if (isMathCall(e.pass.Info, call, "Max") || isMathCall(e.pass.Info, call, "Min")) && len(call.Args) == 2 {
		if ua := e.unitOf(call.Args[0]); ua != unitUnknown && ua == e.unitOf(call.Args[1]) {
			return ua
		}
		return unitUnknown
	}
	if fn := calleeFunc(e.pass.Info, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 1 {
			return unitFromName(fn.Name())
		}
	}
	return unitUnknown
}

// toLinearArg matches the dB→linear conversions phy.DBToLinear(x) and
// math.Pow(10, x/10|x/20) and returns x, or nil for any other call.
func toLinearArg(info *types.Info, call *ast.CallExpr) ast.Expr {
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "DBToLinear" && fn.Pkg() != nil {
		if segs := internalSegments(fn.Pkg().Path()); len(segs) == 1 && segs[0] == "phy" && len(call.Args) == 1 {
			return call.Args[0]
		}
	}
	if !isMathCall(info, call, "Pow") || len(call.Args) != 2 || !isConstTen(info, call.Args[0]) {
		return nil
	}
	q, ok := unparen(call.Args[1]).(*ast.BinaryExpr)
	if !ok || q.Op != token.QUO {
		return nil
	}
	if !isConstTen(info, q.Y) && !isConstTwenty(info, q.Y) {
		return nil
	}
	return q.X
}

// isMathCall reports whether call invokes math.<name>.
func isMathCall(info *types.Info, call *ast.CallExpr, name string) bool {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	return pkgPathOf(info, sel.X) == "math"
}

// calleeFunc resolves the called function or method, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// isConstTen reports whether x is the compile-time constant 10.
func isConstTen(info *types.Info, x ast.Expr) bool { return isConstVal(info, x, 10) }

// isConstTwenty reports whether x is the compile-time constant 20 (the
// amplitude-quantity form of the dB conversion).
func isConstTwenty(info *types.Info, x ast.Expr) bool { return isConstVal(info, x, 20) }

func isConstVal(info *types.Info, x ast.Expr, want int64) bool {
	tv, ok := info.Types[x]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToInt(tv.Value)
	n, exact := constant.Int64Val(v)
	return exact && n == want
}

func runUnitFlow(pass *Pass) {
	env := &unitEnv{
		pass:     pass,
		explicit: map[types.Object]unit{},
		inferred: map[types.Object]unit{},
	}

	// Pass 1: parse directives and attach them to the unit-less
	// variables declared on the covered lines.
	directives := make(map[*ast.File][]*unitDirective, len(pass.Files))
	for _, f := range pass.Files {
		directives[f] = parseUnitDirectives(pass, f)
	}
	for _, f := range pass.Files {
		ds := directives[f]
		if len(ds) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.Info.Defs[id].(*types.Var)
			if !ok || v.Name() == "_" || unitFromName(v.Name()) != unitUnknown {
				return true
			}
			line := pass.Fset.Position(id.Pos()).Line
			for _, d := range ds {
				if d.line == line || d.line == line-1 {
					env.explicit[v] = d.dim
					d.used = true
				}
			}
			return true
		})
		for _, d := range ds {
			if !d.used {
				pass.Report(d.pos, fmt.Sprintf(
					"unitflow: //detlint:unit %s attaches to no unit-less variable on this or the next line — remove it or move it to the declaration", d.dim))
			}
		}
	}

	// Pass 2: walk expressions in source order, inferring units through
	// assignments and checking the mixing rules.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				env.checkAssign(n)
			case *ast.BinaryExpr:
				env.checkBinary(n)
			case *ast.CallExpr:
				env.checkCall(n)
			case *ast.CompositeLit:
				env.checkCompositeLit(n)
			}
			return true
		})
	}
}

// checkAssign verifies unit agreement between each lvalue's declared
// unit and its value, and propagates inferred units to unit-less
// locals.
func (e *unitEnv) checkAssign(a *ast.AssignStmt) {
	if len(a.Lhs) != len(a.Rhs) {
		return // multi-value call: no per-result inference
	}
	// Compound assignment is sugar for lhs = lhs <op> rhs: check it with
	// the binary mixing rules (so rsrpDBm += shadowDB stays legal) and
	// then compare the combined unit against the declared one.
	if op, ok := compoundOp(a.Tok); ok {
		syn := &ast.BinaryExpr{X: a.Lhs[0], OpPos: a.TokPos, Op: op, Y: a.Rhs[0]}
		e.checkBinary(syn)
		lu, ru := e.declaredUnit(a.Lhs[0]), e.unitOfBinary(syn)
		if lu != unitUnknown && ru != unitUnknown && lu != ru {
			e.pass.Report(a.Rhs[0].Pos(), fmt.Sprintf(
				"unitflow: %s leaves %s holding a %s value but it is declared %s — convert explicitly or fix the name",
				a.Tok, exprString(a.Lhs[0]), ru, lu))
		}
		return
	}
	for i, lhs := range a.Lhs {
		rhs := a.Rhs[i]
		lu := e.declaredUnit(lhs)
		ru := e.unitOf(rhs)
		if lu != unitUnknown && ru != unitUnknown && lu != ru {
			e.pass.Report(rhs.Pos(), fmt.Sprintf(
				"unitflow: assigning a %s expression to %s, declared %s — convert explicitly or fix the name",
				ru, exprString(lhs), lu))
			continue
		}
		if lu == unitUnknown && ru != unitUnknown {
			if id, ok := lhs.(*ast.Ident); ok {
				obj := e.pass.Info.Defs[id]
				if obj == nil {
					obj = e.pass.Info.Uses[id]
				}
				if v, ok := obj.(*types.Var); ok {
					if _, seen := e.inferred[v]; !seen {
						e.inferred[v] = ru
					}
				}
			}
		}
	}
}

// compoundOp maps a compound-assignment token to the binary operator it
// abbreviates; bit and shift assignments carry no unit semantics.
func compoundOp(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	}
	return token.ILLEGAL, false
}

// checkBinary applies the additive and comparison mixing rules.
func (e *unitEnv) checkBinary(be *ast.BinaryExpr) {
	switch be.Op {
	case token.ADD, token.SUB:
		ux, uy := e.unitOf(be.X), e.unitOf(be.Y)
		if ux == unitUnknown || uy == unitUnknown {
			return
		}
		switch {
		case ux == unitDBm && uy == unitDBm && be.Op == token.ADD:
			e.pass.Report(be.OpPos,
				"unitflow: adding two absolute powers (dBm + dBm) in the log domain; convert to mW, sum, and convert back")
		case ux.family() != uy.family():
			e.pass.Report(be.OpPos, fmt.Sprintf(
				"unitflow: %s mixes %s and %s operands; convert to a common unit first", be.Op, ux, uy))
		case ux.family() == famFreq && ux != uy:
			e.pass.Report(be.OpPos, fmt.Sprintf(
				"unitflow: frequency-scale mismatch: %s %s %s; scale to a common unit first", ux, be.Op, uy))
		}
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		ux, uy := e.unitOf(be.X), e.unitOf(be.Y)
		if ux == unitUnknown || uy == unitUnknown || ux == uy {
			return
		}
		e.pass.Report(be.OpPos, fmt.Sprintf(
			"unitflow: comparing %s against %s; these are different units", ux, uy))
	}
}

// checkCall flags argument units that contradict the parameter's name
// suffix and double-applied dB↔linear conversions.
func (e *unitEnv) checkCall(call *ast.CallExpr) {
	if num := toLinearArg(e.pass.Info, call); num != nil {
		switch e.unitOf(num) {
		case unitMW, unitLin, unitHz, unitKHz, unitMHz:
			e.pass.Report(call.Pos(), fmt.Sprintf(
				"unitflow: 10^(x/10) applied to a %s value, which is already linear — double conversion", e.unitOf(num)))
		}
		return
	}
	if isMathCall(e.pass.Info, call, "Log10") && len(call.Args) == 1 {
		switch e.unitOf(call.Args[0]) {
		case unitDB, unitDBm:
			e.pass.Report(call.Pos(), fmt.Sprintf(
				"unitflow: log10 of a %s value, which is already in the log domain — double conversion", e.unitOf(call.Args[0])))
		}
		return
	}
	if tv, ok := e.pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	fn := calleeFunc(e.pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	n := sig.Params().Len()
	if sig.Variadic() {
		n--
	}
	if n > len(call.Args) {
		n = len(call.Args)
	}
	for i := 0; i < n; i++ {
		pu := unitFromName(sig.Params().At(i).Name())
		if pu == unitUnknown {
			continue
		}
		au := e.unitOf(call.Args[i])
		if au == unitUnknown || au == pu {
			continue
		}
		e.pass.Report(call.Args[i].Pos(), fmt.Sprintf(
			"unitflow: argument is %s but parameter %s of %s expects %s",
			au, sig.Params().At(i).Name(), fn.Name(), pu))
	}
}

// checkCompositeLit verifies keyed struct fields against their value's
// unit (Sample{SINRdB: rsrqMW} is a violation).
func (e *unitEnv) checkCompositeLit(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		obj := e.pass.Info.Uses[key]
		if _, isVar := obj.(*types.Var); !isVar {
			continue
		}
		fu := e.unitOfObj(obj)
		if fu == unitUnknown {
			continue
		}
		vu := e.unitOf(kv.Value)
		if vu == unitUnknown || vu == fu {
			continue
		}
		e.pass.Report(kv.Value.Pos(), fmt.Sprintf(
			"unitflow: field %s is %s but its value is %s", key.Name, fu, vu))
	}
}

// exprString renders a short lvalue description for diagnostics.
func exprString(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprString(x.X) + "[...]"
	case *ast.ParenExpr:
		return exprString(x.X)
	}
	return "lvalue"
}
