// Package lockheld checks the serving stack's lock-discipline
// invariant: the registry mutexes that guard shared maps and admission
// (core.WarmPool.smu, serve.Server.smu and .admitMu, the fault registry
// lock) must never be held across anything that can block or across a
// solver call, and the per-session slot mutexes (core.sessionSlot.mu,
// serve.session.mu) — which by design ARE held across solves to
// serialize a session — must still never be held across channel
// operations, sleeps, waits, or network I/O.
//
// A registry lock held across a blocking operation turns one slow or
// deadlocked session into a server-wide stall: every solve on the shard
// funnels through those locks. A slot lock held across a channel op can
// deadlock against serve's DropSession, which takes the same lock. The
// analyzer tracks Lock/RLock..Unlock/RUnlock regions intra-procedurally
// (the `mu.Lock(); defer mu.Unlock()` idiom holds to function end) and
// flags, inside a region: channel sends and receives,
// selects without a default (a select WITH default is the sanctioned
// non-blocking idiom — admit's bounded-queue send), ranges over
// channels, time.Sleep, WaitGroup/Cond waits, calls into net and
// net/http, file IO (*os.File methods and the os package's filesystem
// calls — a journal append or fsync under a registry mutex stalls every
// solve on the shard behind the disk), and calls to any function whose
// transitive body can block —
// the may-block call graph, computed per package and exported as a
// fact so it crosses package boundaries. Registry-tier regions
// additionally flag Solve*/Resolve*/Solution calls by name; at the slot
// tier those same calls are exempt from the may-block check, because a
// solve "may block" only through fault injection's latency points and
// holding the slot lock across the (possibly slow) solve is the
// serialization design.
//
// Known soundness limits, chosen to keep false positives at zero:
// calls through function values and interfaces are not resolved, and a
// function literal's body is analyzed as its own function with no locks
// held (it may run later).
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"dmc/internal/analysis/dmcana"
)

// Tier classifies how strict a guarded mutex is.
type tier int

const (
	// tierRegistry mutexes guard shared registries: nothing that can
	// block AND no solver calls while held.
	tierRegistry tier = iota
	// tierSlot mutexes serialize one session: solver calls are their
	// purpose, but blocking operations remain forbidden.
	tierSlot
)

func (t tier) String() string {
	if t == tierSlot {
		return "session-slot"
	}
	return "registry"
}

// mutexSpec names one guarded mutex: a field of a named struct, or —
// for the anonymous-struct idiom (fault's registry var) — a field of a
// named package-level var.
type mutexSpec struct {
	pkg   string // declaring package path
	owner string // struct type name, or package-level var name
	field string
	tier  tier
}

// guarded is the project's lock-discipline table. Fixture stubs declare
// the same paths, so the table serves tests unchanged.
var guarded = []mutexSpec{
	{"dmc/internal/core", "WarmPool", "smu", tierRegistry},
	{"dmc/internal/core", "sessionSlot", "mu", tierSlot},
	{"dmc/internal/serve", "Server", "smu", tierRegistry},
	{"dmc/internal/serve", "Server", "admitMu", tierRegistry},
	{"dmc/internal/serve", "session", "mu", tierSlot},
	{"dmc/internal/fault", "registry", "mu", tierRegistry},
}

// Fact is the may-block set a package exports: the full names
// (types.Func.FullName) of its functions whose bodies can block,
// transitively.
type Fact map[string]bool

// Analyzer is the lockheld pass.
var Analyzer = &dmcana.Analyzer{
	Name:     "lockheld",
	Doc:      "check that registry mutexes are never held across blocking operations or solver calls, and session-slot mutexes never across blocking operations",
	Run:      run,
	FactType: Fact{},
}

func run(pass *dmcana.Pass) error {
	c := &checker{pass: pass, mayBlock: computeMayBlock(pass)}
	pass.ExportFact(c.mayBlock)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.walkBody(fn.Body)
				}
				return false // walkBody handles nested literals
			case *ast.FuncLit:
				c.walkBody(fn.Body)
				return false
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass     *dmcana.Pass
	mayBlock Fact
}

// heldMutex is one live critical section.
type heldMutex struct {
	spec mutexSpec
	pos  token.Pos // the Lock call
}

func (h heldMutex) name() string {
	return h.spec.pkg[strings.LastIndexByte(h.spec.pkg, '/')+1:] + "." + h.spec.owner + "." + h.spec.field
}

// walkBody analyzes one function body, nested literals included (each
// literal starts with nothing held — it may run on another goroutine or
// after the region ends).
func (c *checker) walkBody(body *ast.BlockStmt) {
	c.walkStmts(body.List, map[string]heldMutex{})
	ast.Inspect(body, func(n ast.Node) bool {
		// Collects literals at every nesting depth; walkStmts itself never
		// descends into a literal, so each body is walked exactly once.
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, map[string]heldMutex{})
		}
		return true
	})
}

// walkStmts tracks the held set across a statement sequence. Branch
// bodies are analyzed with a copy: a Lock inside a branch is scoped to
// it, which matches every locking idiom in the tree.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]heldMutex) {
	for _, s := range stmts {
		c.walkStmt(s, held)
	}
}

func (c *checker) walkStmt(s ast.Stmt, held map[string]heldMutex) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if key, hm, op, ok := c.mutexOp(s.X); ok {
			if op == "Lock" || op == "RLock" {
				held[key] = hm
			} else {
				delete(held, key)
			}
			return
		}
		c.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// `defer mu.Unlock()` keeps the region open to function end —
		// that is the point of the idiom — so nothing to do; argument
		// expressions still evaluate now.
		if _, _, _, ok := c.mutexOp(s.Call); ok {
			return
		}
		for _, arg := range s.Call.Args {
			c.checkExpr(arg, held)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			c.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					c.checkExpr(v, held)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.checkExpr(e, held)
		}
	case *ast.SendStmt:
		c.blockingOp(s.Arrow, held, "channel send")
		c.checkExpr(s.Chan, held)
		c.checkExpr(s.Value, held)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		c.checkExpr(s.Cond, held)
		c.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.BlockStmt:
		c.walkStmts(s.List, copyHeld(held))
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.checkExpr(s.Cond, held)
		}
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		if t := c.pass.Info.Types[s.X].Type; t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				c.blockingOp(s.For, held, "range over channel")
			}
		}
		c.checkExpr(s.X, held)
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.checkExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			c.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			c.walkStmts(cc.(*ast.CaseClause).Body, copyHeld(held))
		}
	case *ast.SelectStmt:
		if !hasDefault(s) {
			c.blockingOp(s.Select, held, "select without default")
		}
		for _, cc := range s.Body.List {
			c.walkStmts(cc.(*ast.CommClause).Body, copyHeld(held))
		}
	case *ast.GoStmt:
		// Spawning is non-blocking; the goroutine body was handled as a
		// fresh function by walkBody.
		for _, arg := range s.Call.Args {
			c.checkExpr(arg, held)
		}
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, held)
	}
}

// checkExpr flags blocking expressions (receives, blocking calls)
// reachable from e while locks are held.
func (c *checker) checkExpr(e ast.Expr, held map[string]heldMutex) {
	if len(held) == 0 || e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately, runs later
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.blockingOp(n.OpPos, held, "channel receive")
			}
		case *ast.CallExpr:
			c.checkCall(n, held)
		}
		return true
	})
}

// checkCall classifies one call made while locks are held.
func (c *checker) checkCall(call *ast.CallExpr, held map[string]heldMutex) {
	fn := calleeFunc(c.pass.Info, call)
	if fn == nil {
		return // function value or interface method: not resolvable
	}
	full := fn.FullName()
	if solveFamily(fn.Name()) {
		// Holding a slot lock across a solve is the slot tier's entire
		// purpose, and solves transitively "may block" only through fault
		// injection's latency points (a time.Sleep that simulates the slow
		// solve itself) — so the solve family is exempt from the may-block
		// check at slot tier, and forbidden outright at registry tier.
		for _, hm := range held {
			if hm.spec.tier == tierRegistry {
				c.pass.Reportf(call.Pos(), "solver call %s while registry mutex %s is held (Lock at %s): registry locks must never span a solve",
					full, hm.name(), c.pass.Fset.Position(hm.pos))
			}
		}
		return
	}
	switch {
	case isBlockingStdCall(fn):
		c.blockingOp(call.Pos(), held, full+" call")
	case c.calleeMayBlock(fn):
		c.blockingOp(call.Pos(), held, "call to "+full+", which may block")
	}
}

// solveFamily matches the solver entry points by name: the
// Solve*/Resolve* families and the warm-solution accessors
// (estimate.Adaptor.Solution re-solves on drift).
func solveFamily(name string) bool {
	return strings.HasPrefix(name, "Solve") || strings.HasPrefix(name, "Resolve") ||
		strings.HasPrefix(name, "solve") || strings.HasPrefix(name, "resolve") ||
		name == "Solution"
}

// blockingOp reports op against every held mutex.
func (c *checker) blockingOp(pos token.Pos, held map[string]heldMutex, op string) {
	for _, hm := range held {
		c.pass.Reportf(pos, "%s while %s mutex %s is held (Lock at %s)",
			op, hm.spec.tier, hm.name(), c.pass.Fset.Position(hm.pos))
	}
}

// mutexOp decodes expr as a Lock/RLock/Unlock/RUnlock call on a guarded
// mutex, returning a key identifying the mutex path (so the Unlock of
// `se.sh.pool.smu` closes the region its Lock opened).
func (c *checker) mutexOp(expr ast.Expr) (key string, hm heldMutex, op string, ok bool) {
	call, okc := expr.(*ast.CallExpr)
	if !okc {
		return "", heldMutex{}, "", false
	}
	sel, oks := call.Fun.(*ast.SelectorExpr)
	if !oks {
		return "", heldMutex{}, "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", heldMutex{}, "", false
	}
	recv, oks := sel.X.(*ast.SelectorExpr)
	if !oks {
		return "", heldMutex{}, "", false
	}
	spec, oks := c.guardedField(recv)
	if !oks {
		return "", heldMutex{}, "", false
	}
	return types.ExprString(sel.X), heldMutex{spec: spec, pos: call.Pos()}, op, true
}

// guardedField matches `x.field` against the guarded-mutex table.
func (c *checker) guardedField(sel *ast.SelectorExpr) (mutexSpec, bool) {
	fieldObj, ok := c.pass.Info.Uses[sel.Sel].(*types.Var)
	if !ok || !fieldObj.IsField() {
		return mutexSpec{}, false
	}
	field := fieldObj.Name()
	// Owner by named struct type...
	ownerType := c.pass.Info.Types[sel.X].Type
	for t := ownerType; t != nil; {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				for _, g := range guarded {
					if g.pkg == obj.Pkg().Path() && g.owner == obj.Name() && g.field == field {
						return g, true
					}
				}
			}
		}
		break
	}
	// ...or by package-level var of anonymous struct type (fault's
	// registry idiom).
	if id, ok := sel.X.(*ast.Ident); ok {
		if v, ok := c.pass.Info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			for _, g := range guarded {
				if g.pkg == v.Pkg().Path() && g.owner == v.Name() && g.field == field {
					return g, true
				}
			}
		}
	}
	return mutexSpec{}, false
}

// calleeMayBlock consults the may-block set: the current package's for
// local functions, the exported fact for imported ones.
func (c *checker) calleeMayBlock(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg() == c.pass.Pkg {
		return c.mayBlock[fn.FullName()]
	}
	if !modulePkg(fn.Pkg().Path()) {
		return false
	}
	if v, ok := c.pass.ImportFact(fn.Pkg().Path()); ok {
		return v.(Fact)[fn.FullName()]
	}
	return false
}

// modulePkg reports whether the path is inside this module. The
// may-block graph deliberately stops at the module boundary: under
// `go vet -vettool` the driver computes facts for the standard library
// too, and a transitive "fmt.Errorf may block" signal is not the class
// of unbounded wait the invariant targets — the primitive stdlib
// blockers are named explicitly in isBlockingStdCall instead.
func modulePkg(path string) bool {
	return path == "dmc" || strings.HasPrefix(path, "dmc/")
}

func copyHeld(held map[string]heldMutex) map[string]heldMutex {
	out := make(map[string]heldMutex, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cc.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call's static callee, nil for function values,
// interface methods, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			return nil // dynamic dispatch: unresolvable
		}
	}
	return fn
}

// isBlockingStdCall reports whether fn is a standard-library call the
// analyzer treats as blocking by definition: time.Sleep, WaitGroup and
// Cond waits, anything in net or net/http (conservative — even a
// non-blocking helper from those packages has no business inside a
// guarded critical section), and file IO — every *os.File method
// (Write, Sync, Read, ...) and the package-level filesystem calls hit
// the disk, so snapshot/journal IO can never run under a registry
// mutex.
func isBlockingStdCall(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "time":
		return fn.Name() == "Sleep" || fn.Name() == "Tick" || fn.Name() == "After"
	case "sync":
		return fn.Name() == "Wait" // (*WaitGroup).Wait, (*Cond).Wait
	case "net", "net/http":
		return true
	case "os":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			return ok && named.Obj().Name() == "File"
		}
		switch fn.Name() {
		case "Create", "CreateTemp", "Open", "OpenFile", "OpenRoot",
			"Rename", "Remove", "RemoveAll", "Link", "Symlink",
			"Mkdir", "MkdirAll", "MkdirTemp", "Truncate",
			"ReadFile", "WriteFile", "ReadDir", "Readlink",
			"Chmod", "Chown", "Chtimes", "Stat", "Lstat":
			return true
		}
		return false
	}
	return false
}

// computeMayBlock finds every function in the package whose body can
// block, transitively: a fixpoint over the package's call graph seeded
// with primitive blocking operations and imported may-block facts.
// Calls through function values and interfaces are (unsoundly, but
// quietly) assumed non-blocking.
func computeMayBlock(pass *dmcana.Pass) Fact {
	type fnInfo struct {
		fn   *types.Func
		body *ast.BlockStmt
	}
	var fns []fnInfo
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				fns = append(fns, fnInfo{fn: fn, body: fd.Body})
			}
		}
	}
	out := Fact{}
	mayBlock := func(fn *types.Func) bool {
		if fn.Pkg() == pass.Pkg {
			return out[fn.FullName()]
		}
		if !modulePkg(fn.Pkg().Path()) {
			return false
		}
		if v, ok := pass.ImportFact(fn.Pkg().Path()); ok {
			return v.(Fact)[fn.FullName()]
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if out[fi.fn.FullName()] {
				continue
			}
			blocks := false
			var scan func(n ast.Node) bool
			scan = func(n ast.Node) bool {
				if blocks {
					return false
				}
				switch n := n.(type) {
				case *ast.FuncLit:
					// A literal's body blocks its *caller* only if invoked;
					// invocation sites resolve to nothing, so skip — the
					// enclosing function is judged by what it runs inline.
					return false
				case *ast.SendStmt:
					blocks = true
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						blocks = true
					}
				case *ast.SelectStmt:
					if !hasDefault(n) {
						blocks = true
						return false
					}
					// A select with a default never blocks in its comm ops
					// (that is the sanctioned non-blocking idiom), but its
					// clause bodies still run inline.
					for _, cc := range n.Body.List {
						for _, s := range cc.(*ast.CommClause).Body {
							ast.Inspect(s, scan)
						}
					}
					return false
				case *ast.RangeStmt:
					if t := pass.Info.Types[n.X].Type; t != nil {
						if _, ok := t.Underlying().(*types.Chan); ok {
							blocks = true
						}
					}
				case *ast.CallExpr:
					if fn := calleeFunc(pass.Info, n); fn != nil {
						if isBlockingStdCall(fn) || (fn.Pkg() != nil && mayBlock(fn)) {
							blocks = true
						}
					}
				}
				return !blocks
			}
			ast.Inspect(fi.body, scan)
			if blocks {
				out[fi.fn.FullName()] = true
				changed = true
			}
		}
	}
	return out
}
