package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockAcrossBlocking enforces the no-blocking-under-lock contract: a
// mutex held across an fsync, network I/O, or a channel send turns one
// slow disk or one unbuffered receiver into a stall of every other
// critical section — the farm supervisor and the serve drain path both
// depend on lock hold times being bounded by CPU work. Fsync reach is a
// propagated fact, so a helper that syncs three calls down still
// counts. The WAL's Sync/Close barrier, segment seals and degraded-mode
// entry fsync under l.mu by design; each such call carries a reasoned
// //lint:ignore.
var LockAcrossBlocking = &Analyzer{
	Name: "lock-across-blocking",
	Doc:  "no mutex held across fsync, network I/O, or channel send",
	Run: func(p *Pass) {
		for _, file := range p.Pkg.Files {
			if p.Pkg.Generated[file] {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body != nil {
					w := &lockWalker{p: p}
					w.block(body.List, map[string]bool{})
				}
				return true
			})
		}
	},
}

type lockWalker struct {
	p *Pass
}

// block walks a statement list tracking which mutexes are held. Nested
// control-flow bodies get a copy of the held set, so an early-unlock
// branch cannot poison the statements after the branch.
func (w *lockWalker) block(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		switch s := s.(type) {
		case *ast.ExprStmt:
			if name, op := w.lockOp(s.X); name != "" {
				switch op {
				case "Lock", "RLock":
					held[name] = true
				case "Unlock", "RUnlock":
					delete(held, name)
				}
				continue
			}
			w.checkBlocking(s, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held for the remaining
			// statements; the defer itself blocks nothing.
			if name, _ := w.lockOp(s.Call); name != "" {
				continue
			}
			w.checkBlocking(s, held)
		case *ast.BlockStmt:
			w.block(s.List, held)
		case *ast.IfStmt:
			if s.Init != nil {
				w.checkBlocking(s.Init, held)
			}
			w.checkBlockingExpr(s.Cond, held)
			w.block(s.Body.List, copyHeld(held))
			if s.Else != nil {
				w.block([]ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			w.block(s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			w.checkBlockingExpr(s.X, held)
			w.block(s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.block(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.block(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			// Waiting in a select with a mutex held is itself the hazard
			// (unless a default clause makes it a non-blocking try).
			w.checkBlocking(s, held)
		case *ast.LabeledStmt:
			w.block([]ast.Stmt{s.Stmt}, held)
		default:
			w.checkBlocking(s, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// lockOp recognizes mu.Lock / mu.RLock / mu.Unlock / mu.RUnlock on a
// sync.Mutex or sync.RWMutex, returning the receiver expression text
// and the operation.
func (w *lockWalker) lockOp(e ast.Expr) (name, op string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	t := w.p.Pkg.Info.Types[sel.X].Type
	if t == nil {
		return "", ""
	}
	if path, tname, ok := namedPathName(t); !ok || path != "sync" || (tname != "Mutex" && tname != "RWMutex") {
		return "", ""
	}
	return types.ExprString(sel.X), sel.Sel.Name
}

// checkBlocking scans a statement for blocking operations while any
// mutex is held. Function literals are pruned: code merely defined
// under the lock does not run under it (goroutines and stored
// callbacks), and literals that are invoked are walked as functions in
// their own right.
func (w *lockWalker) checkBlocking(s ast.Stmt, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			w.report(n.Pos(), held, "channel send")
		case *ast.SelectStmt:
			// A select carrying a default clause never blocks; holding a
			// lock across one is a deliberate try-send/try-receive.
			if !hasDefaultClause(n) {
				w.report(n.Pos(), held, "select wait")
			}
			return false
		case *ast.CallExpr:
			w.checkCall(n, held)
		}
		return true
	})
}

func (w *lockWalker) checkBlockingExpr(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkCall(call, held)
		}
		return true
	})
}

// checkCall flags a call that can fsync (by fact) or perform network
// I/O while a lock is held.
func (w *lockWalker) checkCall(call *ast.CallExpr, held map[string]bool) {
	fn := calleeFunc(w.p.Pkg.Info, call.Fun)
	if fn == nil {
		return
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		// Nested lock operations are the deadlock rule's business, and
		// conditional unlocks inside branches are handled by block().
		return
	}
	if facts := w.p.Facts.Of(fn); facts.Fsync != "" {
		// Source facts carry the raw funcKey; shorten it so direct calls
		// and propagated chains render provenance the same way.
		w.report(call.Pos(), held, "fsync ("+shortKey(facts.Fsync)+")")
		return
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "net" {
		sig, _ := fn.Type().(*types.Signature)
		name := fn.Name()
		// Close is exempt: severing a connection does not wait on the
		// peer, and teardown paths legitimately close under the
		// connection-registry lock.
		if name != "Close" && ((sig != nil && sig.Recv() != nil) ||
			strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") || strings.HasPrefix(name, "Lookup")) {
			w.report(call.Pos(), held, "network I/O ("+shortKey(funcKey(fn))+")")
		}
	}
}

// hasDefaultClause reports whether a select statement has a default
// clause (making it non-blocking).
func hasDefaultClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func (w *lockWalker) report(pos token.Pos, held map[string]bool, what string) {
	names := make([]string, 0, len(held))
	for name := range held {
		names = append(names, name)
	}
	sort.Strings(names)
	w.p.Reportf(pos, "%s held across %s; bound lock hold times to CPU work", strings.Join(names, ", "), what)
}
