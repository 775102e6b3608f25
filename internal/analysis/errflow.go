package analysis

import (
	"go/ast"
	"go/types"
)

// ErrFlow is a domain-specific errcheck: errors returned by the fbuf
// protocol APIs encode simulated protection faults (bad transfer target,
// write to an immutable or unmapped buffer, quota exhaustion, draining
// path), and silently discarding one hides exactly the class of bug the
// simulator exists to surface.
//
// A call is flagged when its result — whose final value is an error — is
// used as an expression statement or spawned via go/defer with no
// receiver. Explicitly discarding with `_ =` (or `_, _ =`) is allowed:
// that is a visible, reviewable statement of intent.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "flag discarded errors from fbuf protocol APIs (Alloc, Transfer, Secure, Free, Write, Read, DMA ops)",
	Run:  runErrFlow,
}

// errflowMethods lists the checked (package name, receiver type, method)
// triples. Matching is by package *name* so testdata stubs qualify.
var errflowMethods = []struct {
	pkg, typ, method string
}{
	{"core", "DataPath", "Alloc"},
	{"core", "Manager", "AllocUncached"},
	{"core", "Manager", "Transfer"},
	{"core", "Manager", "Secure"},
	{"core", "Manager", "Free"},
	{"core", "Fbuf", "Write"},
	{"core", "Fbuf", "Read"},
	{"core", "Fbuf", "TouchWrite"},
	{"core", "Fbuf", "TouchRead"},
	{"core", "Fbuf", "DMAWrite"},
	{"core", "Fbuf", "DMARead"},
	{"aggregate", "Ctx", "NewData"},
	{"aggregate", "Ctx", "NewFilled"},
	{"aggregate", "Ctx", "Join"},
	{"aggregate", "Ctx", "Split"},
	{"aggregate", "Ctx", "ClipHead"},
	{"aggregate", "Ctx", "ClipTail"},
	{"aggregate", "Ctx", "Push"},
	{"aggregate", "Ctx", "Pop"},
	{"aggregate", "Msg", "Read"},
	{"aggregate", "Msg", "ReadPages"},
	{"aggregate", "Msg", "Transfer"},
	{"aggregate", "Msg", "Secure"},
	{"aggregate", "Reader", "Next"},
	{"xfer", "Adaptive", "Hop"},
	{"vm", "AddrSpace", "AddRegion"},
	{"vm", "AddrSpace", "Write"},
	{"vm", "AddrSpace", "Read"},
	{"vm", "AddrSpace", "WritePages"},
	{"vm", "AddrSpace", "ReadPages"},
	{"vm", "AddrSpace", "TouchWrite"},
	{"vm", "AddrSpace", "TouchRead"},
}

func isErrflowTarget(fn *types.Func) bool {
	if _, ok := returnsError(fn); !ok {
		return false
	}
	for _, m := range errflowMethods {
		if fn.Name() == m.method && recvTypeIs(fn, m.pkg, m.typ) {
			return true
		}
	}
	return false
}

func runErrFlow(pass *Pass) error {
	info := pass.TypesInfo
	report := func(call *ast.CallExpr, how string) {
		fn := calleeFunc(info, call)
		pass.Reportf(call.Pos(),
			"error from %s.%s %s: protocol errors encode protection faults; handle it or discard explicitly with _ =",
			recvTypeName(fn), fn.Name(), how)
	}
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				if call, ok := s.X.(*ast.CallExpr); ok {
					if fn := calleeFunc(info, call); fn != nil && isErrflowTarget(fn) {
						report(call, "is implicitly discarded")
					}
				}
			case *ast.GoStmt:
				if fn := calleeFunc(info, s.Call); fn != nil && isErrflowTarget(fn) {
					report(s.Call, "is lost in a go statement")
				}
			case *ast.DeferStmt:
				if fn := calleeFunc(info, s.Call); fn != nil && isErrflowTarget(fn) {
					report(s.Call, "is lost in a defer statement")
				}
			}
			return true
		})
	}
	return nil
}

// recvTypeName names fn's receiver type for diagnostics ("?" if none).
func recvTypeName(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return named.Obj().Name()
		}
	}
	return "?"
}
