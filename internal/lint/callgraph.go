// A stdlib-only, type-based call graph over the loaded module, built from
// go/ast + go/types (no golang.org/x/tools — the module stays
// dependency-free). The graph is deliberately conservative: it over-
// approximates the dynamic call relation so that reachability-based
// analyzers (hotalloc) never miss a path, at the cost of some
// spurious edges. Edges come from five sources:
//
//  1. static calls — a call whose callee resolves through types.Info to a
//     declared module function or method;
//  2. interface dispatch — a call through an interface method adds an edge
//     to every module type implementing that interface (class-hierarchy
//     analysis), using the concrete method the method set selects;
//  3. indirect calls — a call through a func-typed struct field adds edges
//     to exactly the function values the module stores into that field
//     (field-sensitive resolution; a store the builder cannot resolve to a
//     syntactic function value marks the field opaque). Calls through other
//     func-typed values — parameters, locals, opaque fields — fan out to
//     every "address-taken" module function, method value, and function
//     literal with the same parameter/result shape (signature buckets);
//  4. interface conversions — passing, assigning, or returning a concrete
//     module value where a non-empty interface is expected makes the
//     interface's methods on that type reachable (this is how
//     container/heap's calls back into a module heap implementation are
//     seen, even though the call sites live in the standard library);
//  5. escaping function values — a function value handed to a non-module
//     callee (sync.Once.Do, sort.Slice) is treated as called at the hand-off
//     point, since the actual invocation is invisible.
//
// Function literals are first-class nodes: a literal's body is analyzed
// exactly once, under the literal's own node, never under its enclosing
// function — the enclosing function gets an edge (or a bucket entry) instead.
// Packages that failed to type-check contribute no nodes; `go build ./...`
// guards compilability, so in practice the graph covers the whole module.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FuncRef names a declared function or method: a module-relative package dir,
// the receiver's named type ("" for a plain function; no pointer marker), and
// the function name.
type FuncRef struct {
	Package string `json:"package"`
	Recv    string `json:"recv,omitempty"`
	Name    string `json:"name"`
}

// String renders the reference as "pkg.(Recv).Name" or "pkg.Name".
func (r FuncRef) String() string {
	if r.Recv != "" {
		return fmt.Sprintf("%s.(%s).%s", r.Package, r.Recv, r.Name)
	}
	return fmt.Sprintf("%s.%s", r.Package, r.Name)
}

// CGNode is one function in the call graph: a declared function/method
// (Fn != nil) or a function literal (Lit != nil).
type CGNode struct {
	Fn   *types.Func  // nil for function literals
	Lit  *ast.FuncLit // nil for declared functions
	Pkg  *Package
	Body *ast.BlockStmt
	Out  []CGEdge
}

// CGEdge is one call edge. Call is the syntactic call site when the edge
// comes from a call expression in the caller's body, and nil for implicit
// edges (interface conversions, function values escaping to external code).
type CGEdge struct {
	Callee *CGNode
	Call   *ast.CallExpr
}

// Sig returns the node's signature (receiver included for methods).
func (n *CGNode) Sig() *types.Signature {
	if n.Fn != nil {
		return n.Fn.Type().(*types.Signature)
	}
	if t, ok := n.Pkg.Info.Types[n.Lit]; ok {
		if sig, ok := t.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// Pos returns the node's declaration position.
func (n *CGNode) Pos() token.Pos {
	if n.Fn != nil {
		return n.Fn.Pos()
	}
	return n.Lit.Pos()
}

// String renders "internal/noc.(*Network).DrainReplies" for methods,
// "internal/engine.resolveWorkers" for functions, and "internal/noc.func@L123"
// for literals.
func (n *CGNode) String() string {
	if n.Lit != nil {
		pos := n.Pkg.Fset.Position(n.Lit.Pos())
		return fmt.Sprintf("%s.func@L%d", n.Pkg.Rel, pos.Line)
	}
	sig := n.Sig()
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("%s.(%s).%s", n.Pkg.Rel,
			types.TypeString(sig.Recv().Type(), relQualifier), n.Fn.Name())
	}
	return fmt.Sprintf("%s.%s", n.Pkg.Rel, n.Fn.Name())
}

func relQualifier(p *types.Package) string { return p.Name() }

// CallGraph is the module-wide call graph. Nodes and edges are in a
// deterministic order (package, file, and syntax order).
type CallGraph struct {
	Nodes []*CGNode

	byFn        map[*types.Func]*CGNode
	byLit       map[*ast.FuncLit]*CGNode
	buckets     map[string][]*CGNode        // sigKey -> address-taken nodes
	fieldFuncs  map[*types.Var][]*CGNode    // func-typed field -> stored values
	fieldOpaque map[*types.Var]bool         // field had an unresolvable store
	isParam     map[*types.Var]bool         // parameters of module functions
	paramFlows  map[*types.Var][]*types.Var // param -> fields it is stored into
	named       []*types.Named              // all module named types, for CHA
	implCache   map[*types.Interface][]*types.Func
}

// BuildCallGraph constructs the graph over every package that type-checked.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	cg := &CallGraph{
		byFn:        make(map[*types.Func]*CGNode),
		byLit:       make(map[*ast.FuncLit]*CGNode),
		buckets:     make(map[string][]*CGNode),
		fieldFuncs:  make(map[*types.Var][]*CGNode),
		fieldOpaque: make(map[*types.Var]bool),
		isParam:     make(map[*types.Var]bool),
		paramFlows:  make(map[*types.Var][]*types.Var),
		implCache:   make(map[*types.Interface][]*types.Func),
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.Info == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					cg.named = append(cg.named, named)
				}
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		cg.collectNodes(pkg)
	}
	for _, n := range cg.Nodes {
		if sig := n.Sig(); sig != nil {
			for i := 0; i < sig.Params().Len(); i++ {
				cg.isParam[sig.Params().At(i)] = true
			}
		}
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		cg.collectAddressTaken(pkg)
		cg.collectFieldStores(pkg)
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		cg.resolveParamFlows(pkg)
	}
	for _, n := range cg.Nodes {
		cg.buildEdges(n)
	}
	return cg
}

// collectNodes registers every function declaration with a body and every
// function literal in pkg.
func (cg *CallGraph) collectNodes(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch d := node.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					return true
				}
				fn, ok := pkg.Info.Defs[d.Name].(*types.Func)
				if !ok {
					return true
				}
				n := &CGNode{Fn: fn, Pkg: pkg, Body: d.Body}
				cg.byFn[fn] = n
				cg.Nodes = append(cg.Nodes, n)
			case *ast.FuncLit:
				n := &CGNode{Lit: d, Pkg: pkg, Body: d.Body}
				cg.byLit[d] = n
				cg.Nodes = append(cg.Nodes, n)
			}
			return true
		})
	}
}

// sigKey normalizes a signature to its parameter/result type shape,
// ignoring the receiver and parameter names, with full package paths so two
// same-named types in different packages never collide.
func sigKey(sig *types.Signature) string {
	var b strings.Builder
	qual := func(p *types.Package) string { return p.Path() }
	b.WriteByte('(')
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	b.WriteByte(')')
	return b.String()
}

// collectAddressTaken finds every reference to a module function that is not
// a direct call — the function is used as a value, so any indirect call with
// a matching signature might land on it — and buckets it by signature shape.
// Function literals are address-taken unless they are invoked on the spot
// (func(){...}()) — those can only be reached through their direct call edge.
func (cg *CallGraph) collectAddressTaken(pkg *Package) {
	called := make(map[*ast.Ident]bool)
	invoked := make(map[*ast.FuncLit]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				called[fun] = true
			case *ast.SelectorExpr:
				called[fun.Sel] = true
			case *ast.FuncLit:
				invoked[fun] = true
			}
			return true
		})
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.Ident:
				if called[e] {
					return true
				}
				fn, ok := pkg.Info.Uses[e].(*types.Func)
				if !ok {
					return true
				}
				if n := cg.byFn[fn]; n != nil {
					key := sigKey(fn.Type().(*types.Signature))
					cg.buckets[key] = append(cg.buckets[key], n)
				}
			case *ast.FuncLit:
				n := cg.byLit[e]
				if n == nil || invoked[e] {
					return true
				}
				if sig := n.Sig(); sig != nil {
					key := sigKey(sig)
					cg.buckets[key] = append(cg.buckets[key], n)
				}
			}
			return true
		})
	}
}

// recordFieldStore resolves one store of rhs into a func-typed struct field.
// A syntactic function value is recorded; when paramHop is set, a bare
// parameter of a module function is deferred to resolveParamFlows (the
// SetWaker pattern: the values passed at that function's call sites are the
// field's values); anything else marks the field opaque.
func (cg *CallGraph) recordFieldStore(info *types.Info, field *types.Var, rhs ast.Expr, paramHop bool) {
	if field == nil {
		return
	}
	if _, ok := field.Type().Underlying().(*types.Signature); !ok {
		return
	}
	switch v := ast.Unparen(rhs).(type) {
	case *ast.FuncLit:
		if n := cg.byLit[v]; n != nil {
			cg.fieldFuncs[field] = append(cg.fieldFuncs[field], n)
			return
		}
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			if n := cg.byFn[fn]; n != nil {
				cg.fieldFuncs[field] = append(cg.fieldFuncs[field], n)
			}
			return // external function: no module body to reach
		}
		if _, isNil := info.Uses[v].(*types.Nil); isNil {
			return
		}
		if pv, ok := info.Uses[v].(*types.Var); ok && paramHop && cg.isParam[pv] {
			cg.paramFlows[pv] = append(cg.paramFlows[pv], field)
			return
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
			if n := cg.byFn[fn]; n != nil {
				cg.fieldFuncs[field] = append(cg.fieldFuncs[field], n)
			}
			return
		}
	}
	cg.fieldOpaque[field] = true
}

// collectFieldStores records, for every func-typed struct field, the function
// values the module stores into it — through assignments and composite
// literals (keyed and positional). A store whose value the builder cannot
// resolve to a syntactic function value (a non-parameter variable, a call
// result) marks the field opaque: calls through it fall back to
// signature-bucket fan-out.
func (cg *CallGraph) collectFieldStores(pkg *Package) {
	info := pkg.Info
	record := func(field *types.Var, rhs ast.Expr) {
		cg.recordFieldStore(info, field, rhs, true)
	}
	structFields := func(e ast.Expr) *types.Struct {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return nil
		}
		t := tv.Type
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		st, _ := t.Underlying().(*types.Struct)
		return st
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			switch e := node.(type) {
			case *ast.AssignStmt:
				if len(e.Lhs) != len(e.Rhs) {
					// Tuple assignment into a field: unresolvable.
					for _, lhs := range e.Lhs {
						if fv := fieldVarOf(info, lhs); fv != nil {
							record(fv, e.Rhs[0])
						}
					}
					return true
				}
				for i := range e.Lhs {
					if fv := fieldVarOf(info, e.Lhs[i]); fv != nil {
						record(fv, e.Rhs[i])
					}
				}
			case *ast.CompositeLit:
				st := structFields(e)
				if st == nil {
					return true
				}
				for i, elt := range e.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							if fv, ok := info.Uses[key].(*types.Var); ok {
								record(fv, kv.Value)
							}
						}
						continue
					}
					if i < st.NumFields() {
						record(st.Field(i), elt)
					}
				}
			}
			return true
		})
	}
}

// resolveParamFlows finishes the SetWaker pattern: for every parameter known
// to be stored into a func-typed field, the arguments passed at the
// function's statically-resolvable call sites become that field's values.
// Interface dispatch propagates to every CHA implementer's parameter. An
// argument that is itself unresolvable (a second hop) marks the field opaque.
func (cg *CallGraph) resolveParamFlows(pkg *Package) {
	info := pkg.Info
	for _, f := range pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			var fns []*types.Func
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				if fn, ok := info.Uses[fun].(*types.Func); ok {
					fns = append(fns, fn)
				}
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
					fn := sel.Obj().(*types.Func)
					if types.IsInterface(sel.Recv()) {
						fns = cg.implementers(fn)
					} else {
						fns = append(fns, fn)
					}
				} else if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
					fns = append(fns, fn)
				}
			}
			for _, fn := range fns {
				sig, ok := fn.Type().(*types.Signature)
				if !ok {
					continue
				}
				for i, arg := range call.Args {
					if i >= sig.Params().Len() {
						break
					}
					if sig.Variadic() && i == sig.Params().Len()-1 {
						break
					}
					for _, field := range cg.paramFlows[sig.Params().At(i)] {
						cg.recordFieldStore(info, field, arg, false)
					}
				}
			}
			return true
		})
	}
}

// fieldVarOf resolves a selector expression to the struct field it selects,
// or nil when e is not a field selection.
func fieldVarOf(info *types.Info, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	v, _ := s.Obj().(*types.Var)
	return v
}

// bodyInspect walks a node's own body, not descending into nested function
// literals (they are separate nodes); the literal node itself is still
// visited, so callers can record its creation.
func bodyInspect(body *ast.BlockStmt, f func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			f(n)
			return false
		}
		return f(n)
	})
}

// buildEdges computes n's outgoing edges.
func (cg *CallGraph) buildEdges(n *CGNode) {
	info := n.Pkg.Info
	addEdge := func(callee *CGNode, call *ast.CallExpr) {
		if callee != nil {
			n.Out = append(n.Out, CGEdge{Callee: callee, Call: call})
		}
	}
	// addConv adds edges for a concrete module value meeting a non-empty
	// interface: the interface's methods on that type become reachable.
	addConv := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		iface, ok := to.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			return
		}
		ms := types.NewMethodSet(from)
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			sel := ms.Lookup(m.Pkg(), m.Name())
			if sel == nil {
				continue
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				addEdge(cg.byFn[fn], nil)
			}
		}
	}
	typeOf := func(e ast.Expr) types.Type {
		if tv, ok := info.Types[e]; ok {
			return tv.Type
		}
		return nil
	}

	bodyInspect(n.Body, func(node ast.Node) bool {
		switch e := node.(type) {
		case *ast.CallExpr:
			cg.callEdges(n, e, addEdge, addConv)
		case *ast.AssignStmt:
			if len(e.Lhs) == len(e.Rhs) {
				for i := range e.Lhs {
					addConv(typeOf(e.Rhs[i]), typeOf(e.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if e.Type != nil {
				for _, v := range e.Values {
					addConv(typeOf(v), typeOf(e.Type))
				}
			}
		case *ast.ReturnStmt:
			sig := n.Sig()
			if sig != nil && len(e.Results) == sig.Results().Len() {
				for i, r := range e.Results {
					addConv(typeOf(r), sig.Results().At(i).Type())
				}
			}
		}
		return true
	})
}

// callEdges resolves one call expression in n's body.
func (cg *CallGraph) callEdges(n *CGNode, call *ast.CallExpr,
	addEdge func(*CGNode, *ast.CallExpr), addConv func(from, to types.Type)) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	// Conversions are not calls; T(x) may still box (hotalloc's concern).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}

	// Direct literal invocation: func(){...}().
	if lit, ok := fun.(*ast.FuncLit); ok {
		addEdge(cg.byLit[lit], call)
		cg.argEdges(n, call, nil, addEdge, addConv)
		return
	}

	var static *CGNode
	resolved := false
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			static = cg.byFn[obj]
			resolved = true
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			resolved = true
			if types.IsInterface(sel.Recv()) {
				// Interface dispatch: CHA over module implementations.
				for _, impl := range cg.implementers(fn) {
					addEdge(cg.byFn[impl], call)
				}
			} else {
				static = cg.byFn[fn]
			}
		} else if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			// Package-qualified call or method expression.
			static = cg.byFn[obj]
			resolved = true
		}
	}
	if static != nil {
		addEdge(static, call)
	}
	if !resolved {
		// Indirect call through a func-typed value. A call through a struct
		// field resolves to exactly the values stored into that field, unless
		// a store was opaque; anything else (parameter, local, opaque field)
		// fans out to the signature bucket of address-taken functions.
		if fv := fieldVarOf(info, fun); fv != nil && !cg.fieldOpaque[fv] {
			for _, callee := range cg.fieldFuncs[fv] {
				addEdge(callee, call)
			}
		} else if t, ok := info.Types[fun]; ok && t.Type != nil {
			if sig, ok := t.Type.Underlying().(*types.Signature); ok {
				for _, callee := range cg.buckets[sigKey(sig)] {
					addEdge(callee, call)
				}
			}
		}
	}
	cg.argEdges(n, call, static, addEdge, addConv)
}

// argEdges handles a call's arguments: interface-conversion edges at
// parameter boundaries, and function values escaping into external callees.
func (cg *CallGraph) argEdges(n *CGNode, call *ast.CallExpr, static *CGNode,
	addEdge func(*CGNode, *ast.CallExpr), addConv func(from, to types.Type)) {
	info := n.Pkg.Info
	var sig *types.Signature
	if tv, ok := info.Types[call.Fun]; ok && tv.Type != nil {
		sig, _ = tv.Type.Underlying().(*types.Signature)
	}
	for i, arg := range call.Args {
		if sig != nil && sig.Params().Len() > 0 {
			pi := i
			if pi >= sig.Params().Len() {
				pi = sig.Params().Len() - 1
			}
			pt := sig.Params().At(pi).Type()
			if sig.Variadic() && pi == sig.Params().Len()-1 && !call.Ellipsis.IsValid() {
				if sl, ok := pt.(*types.Slice); ok {
					pt = sl.Elem()
				}
			}
			if tv, ok := info.Types[arg]; ok {
				addConv(tv.Type, pt)
			}
		}
		if static != nil {
			continue // module callee: its own body's indirect calls cover f
		}
		// Function value escaping into an unresolved or external callee:
		// treat it as called here, since the real call site is invisible.
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			addEdge(cg.byLit[a], nil)
		case *ast.Ident:
			if fn, ok := info.Uses[a].(*types.Func); ok {
				addEdge(cg.byFn[fn], nil)
			}
		case *ast.SelectorExpr:
			if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
				addEdge(cg.byFn[fn], nil)
			} else if fv := fieldVarOf(info, a); fv != nil && !cg.fieldOpaque[fv] {
				// A func-typed field value escaping: whatever the module
				// stored there may be called by the invisible callee.
				for _, callee := range cg.fieldFuncs[fv] {
					addEdge(callee, nil)
				}
			}
		}
	}
}

// implementers returns, for an interface method m, the concrete module
// methods that implement it — the CHA callee set for a dynamic dispatch.
func (cg *CallGraph) implementers(m *types.Func) []*types.Func {
	iface, ok := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	if cached, ok := cg.implCache[iface]; ok {
		return filterByName(cached, m)
	}
	var all []*types.Func
	for _, named := range cg.named {
		if types.IsInterface(named) {
			continue
		}
		ptr := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
			continue
		}
		ms := types.NewMethodSet(ptr)
		for i := 0; i < iface.NumMethods(); i++ {
			im := iface.Method(i)
			sel := ms.Lookup(im.Pkg(), im.Name())
			if sel == nil {
				continue
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				all = append(all, fn)
			}
		}
	}
	cg.implCache[iface] = all
	return filterByName(all, m)
}

// filterByName keeps the concrete methods matching the dispatched name.
func filterByName(fns []*types.Func, m *types.Func) []*types.Func {
	var out []*types.Func
	for _, fn := range fns {
		if fn.Name() == m.Name() {
			out = append(out, fn)
		}
	}
	return out
}

// Lookup resolves a FuncRef to its node, or nil when the module has no such
// function (analyzers treat that as "entry point absent" and go quiet; the
// real tree pins resolution with a dedicated test).
func (cg *CallGraph) Lookup(ref FuncRef) *CGNode {
	for _, n := range cg.Nodes {
		if n.Fn == nil || n.Pkg.Rel != ref.Package || n.Fn.Name() != ref.Name {
			continue
		}
		recv := ""
		if r := n.Sig().Recv(); r != nil {
			t := r.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				recv = named.Obj().Name()
			}
		}
		if recv == ref.Recv {
			return n
		}
	}
	return nil
}

// Reachable returns the transitive closure over Out edges from roots,
// including the roots themselves.
func (cg *CallGraph) Reachable(roots []*CGNode) map[*CGNode]bool {
	seen := make(map[*CGNode]bool)
	var stack []*CGNode
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if !seen[e.Callee] {
				seen[e.Callee] = true
				stack = append(stack, e.Callee)
			}
		}
	}
	return seen
}
