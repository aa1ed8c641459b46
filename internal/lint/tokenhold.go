package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TokenholdAnalyzer polices the worker-pool contract of internal/runner:
// a pool worker is supposed to be simulating, not waiting. A blocking wait
// on a pool worker parks the worker along with the goroutine: a core idles
// while runnable cells queue.
//
// Two rules:
//
//   - In every package: a function literal passed to runner.Stream or
//     runner.Map (a worker callback) must not re-enter Stream/Map — the
//     nested fan-out waits while the callback's pool worker sits idle — and
//     must not launch goroutines, which escape the worker budget entirely.
//   - In TokenPackages (the runner itself, plus rcache, whose Do runs on
//     pool workers): flag blocking waits — channel receives, select without
//     default, sync.WaitGroup.Wait and sync.Cond.Wait.
//
// The //repro:allow tokenhold annotations cover only waits that are bounded
// or that run on a goroutine that is never a pool worker.
var TokenholdAnalyzer = &Analyzer{
	Name: "tokenhold",
	Doc:  "flag blocking waits and nested fan-outs that idle pool workers",
	Run:  runTokenhold,
}

func runTokenhold(pass *Pass) error {
	inTokenPkg := inList(pass.Pkg.Path(), TokenPackages)
	for _, f := range pass.nonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if inTokenPkg {
				checkBlockingWait(pass, n)
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if name, ok := runnerFanout(pass, call.Fun); ok {
					checkWorkerCallbacks(pass, name, call)
				}
			}
			return true
		})
	}
	return nil
}

// checkBlockingWait flags operations that park the current goroutine — and
// the pool worker it may be — until another goroutine acts.
func checkBlockingWait(pass *Pass, n ast.Node) {
	switch n := n.(type) {
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			pass.Reportf(n.Pos(),
				"blocking channel receive on the worker-pool path: a goroutine parked here idles the pool worker it may be")
		}
	case *ast.SelectStmt:
		for _, clause := range n.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				return // has a default: non-blocking
			}
		}
		pass.Reportf(n.Pos(),
			"select without default blocks on the worker-pool path: a goroutine parked here idles the pool worker it may be")
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
				obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				pass.Reportf(n.Pos(),
					"sync %s blocks on the worker-pool path: a goroutine parked here idles the pool worker it may be",
					types.ExprString(n.Fun))
			}
		}
	}
}

// runnerFanout reports whether fun denotes runner.Stream or runner.Map
// (including explicit instantiations like runner.Stream[int]).
func runnerFanout(pass *Pass, fun ast.Expr) (string, bool) {
	fun = ast.Unparen(fun)
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = e.X
	case *ast.IndexListExpr:
		fun = e.X
	}
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != RunnerPackage {
		return "", false
	}
	if name := obj.Name(); name == "Stream" || name == "Map" {
		return name, true
	}
	return "", false
}

// checkWorkerCallbacks inspects the function literals passed to a
// runner.Stream/Map call — the job closures (often inside a slice composite
// literal) and the yield callback — for re-entry and goroutine launches.
func checkWorkerCallbacks(pass *Pass, outer string, call *ast.CallExpr) {
	var lits []*ast.FuncLit
	var collect func(e ast.Expr)
	collect = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			lits = append(lits, e)
		case *ast.CompositeLit:
			for _, elt := range e.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					collect(kv.Value)
				} else {
					collect(elt)
				}
			}
		}
	}
	for _, arg := range call.Args {
		collect(arg)
	}
	for _, lit := range lits {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if name, ok := runnerFanout(pass, n.Fun); ok {
					pass.Reportf(n.Pos(),
						"runner.%s re-entered from inside a runner.%s worker callback: the callback's pool worker idles while the nested fan-out waits",
						name, outer)
				}
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine launched from inside a runner.%s worker callback escapes the worker budget: it runs unaccounted alongside the pool workers", outer)
			}
			return true
		})
	}
}
