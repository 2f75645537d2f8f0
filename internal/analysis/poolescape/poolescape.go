// Package poolescape checks the Solution-lifetime invariant the warm
// serving stack rests on: a Solution obtained from a warm source —
// core.Solver's Resolve*/Solve* methods, core.WarmPool's SolveSession*
// methods, or estimate.Adaptor.Solution — aliases solver-owned storage
// that the NEXT solve on the same solver rebuilds in place (see the
// WarmPool contract in internal/core/warmpool.go).
// Consumers must extract what they need (scenario.NewSolveResult, or a
// field-by-field copy) before the value can outlive its call frame.
//
// The analyzer runs in consumer packages (the storage owners —
// internal/core, internal/lp, internal/estimate — manage that storage
// and are exempt) and performs per-function taint tracking: values
// returned by warm-source calls, and anything reference-shaped derived
// from them (slice/element/field reads like sol.X), must not
//
//   - be stored into memory that outlives the frame: package-level
//     vars, or fields/elements reached through a parameter, receiver,
//     or package-level root;
//   - be sent on a channel;
//   - be captured by a `go` statement's function literal;
//   - be returned to the caller.
//
// One-shot entry points (core.SolveQuality & co., dmc.Solve*) return
// freshly allocated storage and are deliberately NOT tainted —
// retaining those results (internal/proto's simulation Config does) is
// fine. Passing a tainted value to a call is also fine: synchronous use
// inside the frame is exactly the sanctioned pattern.
package poolescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dmc/internal/analysis/dmcana"
)

// Storage-owner packages: they implement the pooling contract and hold
// Solutions in their warm state by design.
var ownerPkgs = map[string]bool{
	"dmc/internal/core":     true,
	"dmc/internal/lp":       true,
	"dmc/internal/estimate": true,
}

// Analyzer is the poolescape pass.
var Analyzer = &dmcana.Analyzer{
	Name: "poolescape",
	Doc:  "check that warm-pool Solutions (solver-owned storage) never outlive their call frame in consumer packages",
	Run:  run,
}

func run(pass *dmcana.Pass) error {
	if ownerPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Type, fn.Recv, fn.Body)
				}
				return false
			case *ast.FuncLit:
				checkFunc(pass, fn.Type, nil, fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

// checkFunc taints warm-source results within one function and flags
// frame-escaping uses. Nested literals are checked independently (их
// own frames), except that a `go` literal capturing a tainted outer
// variable is itself a sink.
func checkFunc(pass *dmcana.Pass, ftyp *ast.FuncType, recv *ast.FieldList, body *ast.BlockStmt) {
	// Objects whose memory the caller can reach: parameters and
	// receiver. Stores rooted at them outlive the frame.
	callerOwned := map[types.Object]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					callerOwned[obj] = true
				}
			}
		}
	}
	addFields(recv)
	addFields(ftyp.Params)

	t := &tainter{pass: pass, tainted: map[types.Object]token.Pos{}}
	// Seed + propagate to a fixpoint: assignments appear in source order
	// but loops can carry taint backwards.
	for {
		before := len(t.tainted)
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok && n != nil {
				return false // separate frame
			}
			if as, ok := n.(*ast.AssignStmt); ok {
				t.propagate(as)
			}
			return true
		})
		if len(t.tainted) == before {
			break
		}
	}
	if len(t.tainted) == 0 {
		return
	}

	// Sink scan.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break // tuple assign: RHS is a call, never tainted as a tuple
				}
				if pos, tainted := t.taintedExpr(n.Rhs[i]); tainted && t.persistent(lhs, callerOwned) {
					pass.Reportf(n.Pos(), "pool-backed Solution (from warm solve at %s) stored outside the call frame; it aliases solver storage the next solve rebuilds — extract a copy first (e.g. scenario.NewSolveResult)",
						pass.Fset.Position(pos))
				}
			}
		case *ast.SendStmt:
			if pos, tainted := t.taintedExpr(n.Value); tainted {
				pass.Reportf(n.Pos(), "pool-backed Solution (from warm solve at %s) sent on a channel; the receiver outlives this frame and the next solve rebuilds the storage — send a copy",
					pass.Fset.Position(pos))
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if pos, tainted := t.taintedExpr(res); tainted {
					pass.Reportf(res.Pos(), "pool-backed Solution (from warm solve at %s) returned to the caller; the warm solver can rebuild its storage before the caller reads it — return a copy",
						pass.Fset.Position(pos))
				}
			}
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				t.checkGoCapture(lit, n.Pos())
			}
			for _, arg := range n.Call.Args {
				if pos, tainted := t.taintedExpr(arg); tainted {
					pass.Reportf(arg.Pos(), "pool-backed Solution (from warm solve at %s) passed to a goroutine, which races the session's next solve — pass a copy",
						pass.Fset.Position(pos))
				}
			}
		}
		return true
	})
}

// tainter tracks which local objects hold (or reach) warm solver
// storage within one function.
type tainter struct {
	pass    *dmcana.Pass
	tainted map[types.Object]token.Pos // object -> originating warm call
}

// propagate transfers taint across one assignment.
func (t *tainter) propagate(as *ast.AssignStmt) {
	// Warm-source call: taint every Solution-typed LHS.
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && t.warmSource(call) {
			for _, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := t.objOf(id); obj != nil && solutionish(obj.Type()) {
						t.taint(obj, call.Pos())
					}
				}
			}
			return
		}
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if pos, tainted := t.taintedExpr(as.Rhs[i]); tainted {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := t.objOf(id); obj != nil {
					t.taint(obj, pos)
				}
			}
		}
	}
}

func (t *tainter) taint(obj types.Object, pos token.Pos) {
	if _, ok := t.tainted[obj]; !ok {
		t.tainted[obj] = pos
	}
}

func (t *tainter) objOf(id *ast.Ident) types.Object {
	if obj := t.pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return t.pass.Info.Uses[id]
}

// taintedExpr reports whether e reaches warm solver storage, and the
// originating warm call. Reference-shaped derivations stay tainted
// (sols[i], sol.X, (*sol)); scalar reads (sol.Quality) do not.
func (t *tainter) taintedExpr(e ast.Expr) (token.Pos, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := t.objOf(e); obj != nil {
			if pos, ok := t.tainted[obj]; ok {
				return pos, true
			}
		}
	case *ast.CallExpr:
		if t.warmSource(e) {
			return e.Pos(), true
		}
	case *ast.IndexExpr:
		return t.taintedExpr(e.X)
	case *ast.SelectorExpr:
		if pos, ok := t.taintedExpr(e.X); ok && refShaped(t.pass.Info.Types[e].Type) {
			return pos, true
		}
	case *ast.StarExpr:
		return t.taintedExpr(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.taintedExpr(e.X)
		}
	case *ast.SliceExpr:
		return t.taintedExpr(e.X)
	}
	return token.NoPos, false
}

// persistent reports whether storing into lhs outlives the frame: a
// package-level var, or a field/element chain rooted at a parameter,
// receiver, package-level var, or another tainted object (already
// aliasing pool storage).
func (t *tainter) persistent(lhs ast.Expr, callerOwned map[types.Object]bool) bool {
	root := lhs
	depth := 0
	for {
		switch x := ast.Unparen(root).(type) {
		case *ast.SelectorExpr:
			root, depth = x.X, depth+1
			continue
		case *ast.IndexExpr:
			root, depth = x.X, depth+1
			continue
		case *ast.StarExpr:
			root, depth = x.X, depth+1
			continue
		}
		break
	}
	id, ok := ast.Unparen(root).(*ast.Ident)
	if !ok {
		// Rooted at a call or literal: not locally provable, let it go.
		return false
	}
	obj := t.objOf(id)
	if obj == nil {
		return false
	}
	if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true // package-level var (with or without a selector chain)
	}
	if depth == 0 {
		return false // plain rebind of a local/param variable
	}
	return callerOwned[obj]
}

// checkGoCapture flags tainted free variables captured by a goroutine
// literal.
func (t *tainter) checkGoCapture(lit *ast.FuncLit, goPos token.Pos) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := t.pass.Info.Uses[id]; obj != nil {
			if pos, tainted := t.tainted[obj]; tainted {
				t.pass.Reportf(id.Pos(), "goroutine captures pool-backed Solution %q (from warm solve at %s) and races the session's next solve — capture a copy",
					id.Name, t.pass.Fset.Position(pos))
			}
		}
		return true
	})
}

// warmSource reports whether the call returns solver-owned storage.
func (t *tainter) warmSource(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	var fn *types.Func
	if s, ok := t.pass.Info.Selections[sel]; ok {
		fn, _ = s.Obj().(*types.Func)
	} else {
		fn, _ = t.pass.Info.Uses[sel.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recvName := namedBase(sig.Recv().Type())
	if recvName == "" {
		return false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	switch {
	case pkg == "dmc/internal/core" && recvName == "Solver":
		return strings.HasPrefix(name, "Resolve") || strings.HasPrefix(name, "Solve")
	case pkg == "dmc/internal/core" && recvName == "WarmPool":
		return strings.HasPrefix(name, "Solve")
	case pkg == "dmc/internal/estimate" && recvName == "Adaptor":
		return name == "Solution"
	}
	return false
}

// namedBase returns the receiver's named-type name, through a pointer.
func namedBase(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// solutionish reports whether the type is (or contains, through
// pointers and slices) a solver Solution.
func solutionish(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer:
		return solutionish(t.Elem())
	case *types.Slice:
		return solutionish(t.Elem())
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil || obj.Name() != "Solution" {
			return false
		}
		p := obj.Pkg().Path()
		return p == "dmc/internal/core" || p == "dmc/internal/lp"
	}
	return false
}

// refShaped reports whether a derived value still aliases the parent's
// storage: pointers, slices, and maps do; scalars and struct copies do
// not.
func refShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
