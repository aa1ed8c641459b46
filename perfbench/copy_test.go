package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// calls lists the names of the functions a function declaration calls, in
// source order, leaving out skip and pprof's profile labelling. A method or
// package function is named by its selector alone (e.Run, sim.New: Run,
// New).
func calls(t *testing.T, file, recv, fn string, skip ...string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != fn || (fd.Recv != nil) != (recv != "") {
			continue
		}
		var out []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var name string
			switch x := c.Fun.(type) {
			case *ast.Ident:
				name = x.Name
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); !ok || pkg.Name != "pprof" {
					name = x.Sel.Name
				}
			}
			if name != "" && !slices.Contains(skip, name) {
				out = append(out, name)
			}
			return true
		})
		return out
	}
	t.Fatalf("%s: no function %s", file, fn)
	return nil
}

// The traced copy of exp's cell path makes the same calls in the same
// order as exp does, apart from timing them; the span-carrying variants
// exp calls (DoSpan, AcquireSpan) are the copy's Do and Acquire.
func TestCopyMatchesExp(t *testing.T) {
	const exp = "../internal/exp/exp.go"
	norm := func(names []string) []string {
		for i, n := range names {
			switch n {
			case "DoSpan":
				names[i] = "Do"
			case "AcquireSpan":
				names[i] = "Acquire"
			}
		}
		return names
	}
	keep := func(names []string, only ...string) []string {
		return slices.DeleteFunc(names, func(n string) bool { return !slices.Contains(only, n) })
	}
	// The cell: key, then the cache's Do around the compute.
	want := keep(norm(calls(t, exp, "", "runCellTraced")), "KeyOf", "Do")
	got := keep(calls(t, "traced.go", "Pass", "cell"), "KeyOf", "Do")
	if !slices.Equal(got, want) {
		t.Errorf("cell: the copy calls %v, exp %v", got, want)
	}
	// The compute: every call but exp's phase timing and the copy's spans.
	want = norm(calls(t, exp, "", "runOneSpan", "StartPhase", "endSim", "Errorf"))
	got = calls(t, "traced.go", "Pass", "compute", "Begin", "End", "Errorf")
	if !slices.Equal(got, want) {
		t.Errorf("compute: the copy calls %v, exp %v", got, want)
	}
}

// The layer share counts only time inside named leaf layers (and Do on a
// hit): work a cell does outside them, such as a slow store in Do after a
// miss, lowers it.
func TestLayerShare(t *testing.T) {
	cell := func(base, id int64, doSelf int64) []Span {
		c := "p/" + string(rune('0'+id))
		return []Span{
			{ID: base, Name: "cell", Cell: c, Start: 0, End: 110 + doSelf},
			{ID: base + 1, Parent: base, Name: "rcache.KeyOf", Cell: c, Start: 0, End: 10},
			{ID: base + 2, Parent: base, Name: "rcache.Store.Do", Cell: c, Start: 10, End: 110 + doSelf},
			{ID: base + 3, Parent: base + 2, Name: "sim.Engine.Run", Cell: c, Start: 10, End: 110},
		}
	}
	hit := []Span{
		{ID: 100, Name: "cell", Cell: "p/h", Start: 0, End: 50},
		{ID: 101, Parent: 100, Name: "rcache.Store.Do", Cell: "p/h", Start: 0, End: 50},
		{ID: 102, Name: "cell", Cell: "other/h", Start: 0, End: 1000}, // another pass
	}
	if s := LayerShare(append(cell(1, 1, 0), hit...), "p"); s != 1 {
		t.Errorf("all time in layers: share %v, want 1", s)
	}
	if s := LayerShare(cell(1, 1, 110), "p"); s != 0.5 {
		t.Errorf("half of a miss outside the layers: share %v, want 0.5", s)
	}
}
