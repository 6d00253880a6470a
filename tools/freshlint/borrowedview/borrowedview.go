// Package borrowedview enforces the borrowed-buffer contract on the
// zero-copy serving path: byte slices lent by kv.Authority.GetView /
// GetViewAged / GetViewAgedBatch are the authority's own entry buffers,
// proto.SharedFrame.Bytes is a refcounted frame's backing array, and a
// frame from proto.Reader.ReadFrame (and the key proto.PeekGet finds
// in it) is the Reader's buffer, overwritten by its next read. A caller
// that mutates one corrupts the stored value or frame for every future
// reader; a caller that stows one in a struct, global, map, or channel
// lets it outlive the borrow (the frame is recycled on Release or
// reread, the entry buffer's immutability promise only covers the
// lending scope). This is how the LB's GET forwarder is proven to copy
// a frame (proto.CopyFrame) before its read loop reads the next one.
package borrowedview

import (
	"go/ast"
	"go/types"

	"freshcache/tools/freshlint/analysis"
	"freshcache/tools/freshlint/internal/lintutil"
)

const (
	kvPkg    = "internal/kv"
	protoPkg = "internal/proto"
)

// Analyzer checks that borrowed view buffers neither escape nor mutate.
var Analyzer = &analysis.Analyzer{
	Name: "borrowedview",
	Doc: `check that borrowed buffers from GetView/EncodeShared/ReadFrame never escape or mutate

Values returned by kv.Authority.GetView/GetViewAged (and lent to the
GetViewAgedBatch callback), by proto.SharedFrame.Bytes, by
proto.Reader.ReadFrame and as proto.PeekGet's key are borrowed:
they may flow into serve/flush calls within the scope, but must not be
written through (index assignment, copy destination, append) and must
not be stored into struct fields, package-level variables, map or slice
elements, or sent on channels. Paths that need an owned copy must use
Authority.Get, or copy explicitly.`,
	Run: run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	borrowed := collectBorrowed(pass)
	if len(borrowed) == 0 {
		return nil, nil
	}
	for _, file := range pass.Files {
		checkUses(pass, file, borrowed)
	}
	return nil, nil
}

// collectBorrowed finds every variable bound to a borrowed buffer:
//
//	value, ver, ok := auth.GetView(key)            // value borrowed
//	value, ver, w, ok := auth.GetViewAged(key)     // value borrowed
//	auth.GetViewAgedBatch(keys, func(i int, value []byte, ...) {...})
//	b := frame.Bytes()                             // b borrowed
//	frame, err := rd.ReadFrame()                   // frame borrowed
//	key, id, ok := proto.PeekGet(frame)            // key borrowed
func collectBorrowed(pass *analysis.Pass) map[*types.Var]string {
	borrowed := make(map[*types.Var]string)
	mark := func(expr ast.Expr, what string) {
		id, ok := ast.Unparen(expr).(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			borrowed[v] = what
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := lintutil.Callee(pass.TypesInfo, call)
				switch {
				case lintutil.IsMethod(fn, kvPkg, "Authority", "GetView"),
					lintutil.IsMethod(fn, kvPkg, "Authority", "GetViewAged"):
					mark(n.Lhs[0], "Authority."+fn.Name())
				case lintutil.IsMethod(fn, protoPkg, "SharedFrame", "Bytes"):
					mark(n.Lhs[0], "SharedFrame.Bytes")
				case lintutil.IsMethod(fn, protoPkg, "Reader", "ReadFrame"):
					mark(n.Lhs[0], "Reader.ReadFrame")
				case lintutil.IsPkgFunc(fn, protoPkg, "PeekGet"):
					mark(n.Lhs[0], "PeekGet key")
				}
			case *ast.CallExpr:
				fn := lintutil.Callee(pass.TypesInfo, n)
				if lintutil.IsMethod(fn, kvPkg, "Authority", "GetViewAgedBatch") && len(n.Args) == 2 {
					if fl, ok := ast.Unparen(n.Args[1]).(*ast.FuncLit); ok {
						params := fl.Type.Params.List
						// func(i int, value []byte, version uint64, written time.Time, ok bool)
						var flat []*ast.Ident
						for _, p := range params {
							flat = append(flat, p.Names...)
						}
						if len(flat) >= 2 {
							mark(flat[1], "Authority.GetViewAgedBatch value")
						}
					}
				}
			}
			return true
		})
	}
	return borrowed
}

func checkUses(pass *analysis.Pass, file *ast.File, borrowed map[*types.Var]string) {
	isBorrowed := func(expr ast.Expr) (*types.Var, string, bool) {
		v := lintutil.VarOf(pass.TypesInfo, expr)
		if v == nil {
			return nil, "", false
		}
		what, ok := borrowed[v]
		return v, what, ok
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				// Mutation: view[i] = x writes the authority's buffer.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if v, what, ok := isBorrowed(ix.X); ok {
						pass.Reportf(ix.Pos(), "write into borrowed %s buffer %s: the view is immutable; use a copying accessor", what, v.Name())
					}
				}
				// Escape: field/global/element stores outlive the borrow.
				if i < len(n.Rhs) && len(n.Lhs) == len(n.Rhs) {
					if v, what, ok := isBorrowed(n.Rhs[i]); ok {
						switch tgt := ast.Unparen(lhs).(type) {
						case *ast.SelectorExpr:
							pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in a struct field: it must not outlive the lending scope; copy it first", what, v.Name())
						case *ast.IndexExpr:
							pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in a map or slice element: it must not outlive the lending scope; copy it first", what, v.Name())
						case *ast.Ident:
							if obj, ok := pass.TypesInfo.Uses[tgt].(*types.Var); ok && obj.Parent() == pass.Pkg.Scope() {
								pass.Reportf(n.Rhs[i].Pos(), "borrowed %s buffer %s stored in package-level variable %s: it must not outlive the lending scope; copy it first", what, v.Name(), tgt.Name)
							}
						}
					}
				}
			}
		case *ast.SendStmt:
			if v, what, ok := isBorrowed(n.Value); ok {
				pass.Reportf(n.Value.Pos(), "borrowed %s buffer %s sent on a channel: the receiver outlives the borrow; copy it first", what, v.Name())
			}
		case *ast.CallExpr:
			fn, _ := ast.Unparen(n.Fun).(*ast.Ident)
			if fn == nil || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := pass.TypesInfo.Uses[fn].(*types.Builtin); !isBuiltin {
				return true
			}
			switch fn.Name {
			case "copy":
				if v, what, ok := isBorrowed(n.Args[0]); ok {
					pass.Reportf(n.Args[0].Pos(), "copy into borrowed %s buffer %s: the view is immutable; use a copying accessor", what, v.Name())
				}
			case "append":
				if v, what, ok := isBorrowed(n.Args[0]); ok {
					pass.Reportf(n.Args[0].Pos(), "append to borrowed %s buffer %s may write its backing array: build a fresh slice instead", what, v.Name())
				}
			}
		}
		return true
	})
}
