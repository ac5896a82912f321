// Package lockverb forbids holding a sync mutex across a doorbell post
// or blocking verb issue.
//
// A verb blocks for queueing plus at least one round trip; a doorbell
// batch blocks for a whole round of them. Holding a sync.Mutex (or
// RWMutex) across that wait turns one slow or dead remote node into a
// pile-up of every thread that touches the lock — the deadlock/latency
// hazard the background reclaimer and the replica write-through paths
// are carefully structured to avoid (their per-entry locks are
// virtual-time constructs that yield to the scheduler; OS mutexes do
// not). Today the sim-driven packages are cooperatively scheduled and
// hold no OS mutexes at all, so this analyzer is a tripwire for the
// refactors the ROADMAP queues next: the zero-alloc hot path (sharded
// stat counters, RCU snapshots) and the pluggable wire transport both
// introduce real concurrency around exactly these call sites.
//
// The check is an intra-function, syntactic over-approximation: a
// mutex is "held" from a Lock/RLock call (or for the remainder of the
// function after a defer Unlock/RUnlock, the usual pairing) until a
// matching Unlock/RUnlock on the same receiver expression. Any rdma
// verb, doorbell post, or executor run (exec.Runner and its strategy
// runners) reached while held is reported.
// Code that genuinely must post under a mutex (none should) states why
// with //dittolint:allow lockverb (reason).
package lockverb

import (
	"go/ast"
	"go/types"

	"ditto/internal/analysis"
)

// Analyzer is the lockverb pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockverb",
	Doc: "no sync mutex may be held (including via defer) across a " +
		"doorbell post or blocking verb issue (reclaimer/replica " +
		"write-through latency contract)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body)
				}
				return false // nested FuncLits are walked by checkBody
			}
			return true
		})
	}
	return nil
}

// checkBody walks one function body in statement order, tracking the
// set of held mutexes (by receiver expression text).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	held := make(map[string]ast.Node)
	walkStmts(pass, body.List, held)
}

func walkStmts(pass *analysis.Pass, stmts []ast.Stmt, held map[string]ast.Node) {
	for _, s := range stmts {
		walkStmt(pass, s, held)
	}
}

// walkStmt processes one statement: classifies lock/unlock calls,
// reports verb issues while a mutex is held, and recurses into nested
// blocks with the current held set (branch-insensitive: an unlock seen
// in a branch releases for the code after it — a deliberate
// under-approximation that keeps the check quiet on conditional-unlock
// idioms).
func walkStmt(pass *analysis.Pass, s ast.Stmt, held map[string]ast.Node) {
	switch s := s.(type) {
	case *ast.DeferStmt:
		// defer mu.Unlock() pins the mutex held for the rest of the
		// function; a deferred Lock (pathological) is ignored.
		if recv, kind := lockKind(pass.Info, s.Call); kind == unlockCall {
			held[recv] = s
		}
		scanCalls(pass, s.Call.Args, held) // verb calls evaluated now, as defer args
		return
	case *ast.BlockStmt:
		walkStmts(pass, s.List, held)
		return
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		scanCalls(pass, []ast.Expr{s.Cond}, held)
		walkStmt(pass, s.Body, held)
		if s.Else != nil {
			walkStmt(pass, s.Else, held)
		}
		return
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		if s.Cond != nil {
			scanCalls(pass, []ast.Expr{s.Cond}, held)
		}
		walkStmt(pass, s.Body, held)
		if s.Post != nil {
			walkStmt(pass, s.Post, held)
		}
		return
	case *ast.RangeStmt:
		scanCalls(pass, []ast.Expr{s.X}, held)
		walkStmt(pass, s.Body, held)
		return
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, held)
		}
		if s.Tag != nil {
			scanCalls(pass, []ast.Expr{s.Tag}, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanCalls(pass, cc.List, held)
				walkStmts(pass, cc.Body, held)
			}
		}
		return
	case *ast.TypeSwitchStmt:
		walkStmt(pass, s.Body, held)
		return
	case *ast.SelectStmt:
		walkStmt(pass, s.Body, held)
		return
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, kind := lockKind(pass.Info, call); kind != notLock {
				if kind == lockCall {
					held[recv] = s
				} else {
					delete(held, recv)
				}
				return
			}
		}
		scanCalls(pass, []ast.Expr{s.X}, held)
		return
	default:
		// Assignments, returns, go/send statements, decls: scan every
		// contained expression for verb-issuing calls.
		var exprs []ast.Expr
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				exprs = append(exprs, e)
				return false // scanCalls walks the subtree itself
			}
			return true
		})
		scanCalls(pass, exprs, held)
		return
	}
}

// scanCalls reports every verb-issuing call under the expressions while
// a mutex is held.
func scanCalls(pass *analysis.Pass, exprs []ast.Expr, held map[string]ast.Node) {
	if len(held) == 0 {
		// Fast path: still need to walk for nested Lock calls inside
		// expressions? Lock/Unlock as expression operands is not idiomatic;
		// statement-position calls handle the real pattern.
	}
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if len(held) == 0 {
				return true
			}
			if name, isVerb := analysis.BlockingVerbIssue(pass.Info, call); isVerb {
				pass.Reportf(call.Pos(),
					"%s issued while holding %s: a blocked round trip stalls every thread behind the mutex; release it before posting (see the reclaimer/replica write-through structure)",
					name, heldNames(held))
			}
			return true
		})
	}
}

// heldNames renders the held set for the diagnostic.
func heldNames(held map[string]ast.Node) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return "mutex " + names[0]
	}
	s := "mutexes"
	// Deterministic enough for diagnostics: sort small slice.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	for _, n := range names {
		s += " " + n
	}
	return s
}

type lockClass int

const (
	notLock lockClass = iota
	lockCall
	unlockCall
)

// lockKind classifies call as a sync.Mutex/RWMutex (R)Lock/(R)Unlock
// method call, returning the receiver's expression text as the held-set
// key.
func lockKind(info *types.Info, call *ast.CallExpr) (recv string, kind lockClass) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", notLock
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || analysis.FuncPkgPath(fn) != "sync" {
		return "", notLock
	}
	named := analysis.ReceiverNamed(fn)
	if named == nil {
		return "", notLock
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", notLock
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = lockCall
	case "Unlock", "RUnlock":
		kind = unlockCall
	default:
		return "", notLock
	}
	return types.ExprString(sel.X), kind
}
