package analysis

import (
	"go/ast"
	"go/types"
)

// Function summaries for the fbuflife interprocedural analysis. A summary
// records, per parameter slot, the lifecycle events a call applies to its
// fbuf-typed arguments, plus which results return freshly-allocated
// (caller-owned) handles. Two sources feed the table:
//
//   - builtin summaries for the facility API itself (Manager, DataPath,
//     Magazine, Fbuf, Msg methods), matched by package name + receiver
//     type so the testdata stubs exercise the same code paths as the
//     real fbufs/internal packages;
//   - computed summaries for same-package helpers, extracted bottom-up
//     by running the dataflow engine over each function in summary mode
//     and iterating to a fixpoint (so helpers-calling-helpers resolve).
//
// Cross-package non-facility calls have no summary; the engine treats
// their fbuf arguments as escaping (discharged, state preserved) — the
// conservative choice for a may-analysis that must stay quiet when
// unsure.

// valKind classifies a tracked value.
type valKind uint8

const (
	vkNone   valKind = iota
	vkSingle         // *core.Fbuf
	vkBatch          // []*core.Fbuf
	vkElem           // one element view of a batch
	vkMsg            // *aggregate.Msg
)

// effLevel says at which granularity a summary effect applies to a
// batch-typed slot.
type effLevel uint8

const (
	levSingle effLevel = iota // the value itself
	levElem                   // per-element (helper frees fs[i] / range)
	levBatch                  // whole batch at once (FreeBatch)
)

// sumEffect is one lifecycle event a callee applies to a caller value.
// Slot -1 is the method receiver; 0..n-1 are argument positions.
type sumEffect struct {
	slot    int
	ev      LifeEvent
	level   effLevel
	domSlot int  // arg slot supplying the acting domain; -1 unknown
	escape  bool // value escapes (stored, sent, captured, unknown call)
	dup     bool // DupRef: grants one extra Free in domSlot's domain
	rebind  bool // out-param repopulated with fresh handles (AllocBatch)
}

// freshKind says what a call result hands the caller.
type freshKind uint8

const (
	fkNone  freshKind = iota
	fkOwned           // freshly allocated, caller must discharge
	fkAlias           // fbuf-typed but aliasing existing storage: track
	// without an ownership obligation
)

// funcSummary is the interprocedural contract of one function.
type funcSummary struct {
	effects []sumEffect
	fresh   []freshKind // per result index
}

func (s *funcSummary) equal(o *funcSummary) bool {
	if o == nil || len(s.effects) != len(o.effects) || len(s.fresh) != len(o.fresh) {
		return false
	}
	for i := range s.effects {
		if s.effects[i] != o.effects[i] {
			return false
		}
	}
	for i := range s.fresh {
		if s.fresh[i] != o.fresh[i] {
			return false
		}
	}
	return true
}

// fbufKindOf classifies a type as a tracked fbuf handle kind.
func fbufKindOf(t types.Type) valKind {
	if t == nil {
		return vkNone
	}
	if sl, ok := t.Underlying().(*types.Slice); ok {
		if isNamedPtr(sl.Elem(), "core", "Fbuf") {
			return vkBatch
		}
		return vkNone
	}
	if isNamedPtr(t, "core", "Fbuf") {
		return vkSingle
	}
	if isNamedPtr(t, "aggregate", "Msg") {
		return vkMsg
	}
	return vkNone
}

// isNamedPtr reports whether t is *pkg.Name or pkg.Name (pkg matched by
// package name, not import path — the testdata-stub convention).
func isNamedPtr(t types.Type, pkgName, typeName string) bool {
	named := namedOf(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Name() == pkgName && named.Obj().Name() == typeName
}

// builtinSummary returns the hand-written contract of a facility API
// call, or nil when fn is not part of the facility surface.
func builtinSummary(fn *types.Func) *funcSummary {
	name := fn.Name()
	switch {
	case recvTypeIs(fn, "core", "Manager"):
		switch name {
		case "Transfer":
			return &funcSummary{effects: []sumEffect{{slot: 0, ev: EvTransfer, domSlot: -1}}}
		case "Free":
			return &funcSummary{effects: []sumEffect{{slot: 0, ev: EvFree, domSlot: 1}}}
		case "FreeBatch":
			return &funcSummary{effects: []sumEffect{{slot: 0, ev: EvFree, level: levBatch, domSlot: 1}}}
		case "Secure":
			return &funcSummary{effects: []sumEffect{{slot: 0, ev: EvSecure, domSlot: -1}}}
		case "DupRef":
			return &funcSummary{effects: []sumEffect{{slot: 0, dup: true, domSlot: 1}}}
		case "AllocUncached", "AllocUncachedFill":
			return &funcSummary{fresh: []freshKind{fkOwned, fkNone}}
		}
	case recvTypeIs(fn, "core", "DataPath"):
		switch name {
		case "Alloc":
			return &funcSummary{fresh: []freshKind{fkOwned, fkNone}}
		case "AllocBatch":
			return &funcSummary{effects: []sumEffect{{slot: 0, rebind: true, domSlot: -1}}}
		}
	case recvTypeIs(fn, "core", "Magazine"):
		switch name {
		case "Alloc":
			return &funcSummary{fresh: []freshKind{fkOwned, fkNone}}
		case "Free":
			return &funcSummary{effects: []sumEffect{{slot: 0, ev: EvFree, domSlot: 1}}}
		}
	case recvTypeIs(fn, "core", "Fbuf"):
		switch name {
		case "Write", "TouchWrite", "DMAWrite":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvWrite, domSlot: -1}}}
		case "Read", "TouchRead", "DMARead", "Secured":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvRead, domSlot: -1}}}
		}
	case recvTypeIs(fn, "aggregate", "Msg"):
		switch name {
		case "Transfer":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvTransfer, domSlot: -1}}}
		case "Free":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvFree, domSlot: 0}}}
		case "Secure":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvSecure, domSlot: -1}}}
		case "Read", "ReadAll", "ReadPages", "Touch":
			return &funcSummary{effects: []sumEffect{{slot: -1, ev: EvRead, domSlot: -1}}}
		}
	case recvTypeIs(fn, "aggregate", "Ctx"):
		switch name {
		case "NewData", "NewFilled":
			// A fresh message over freshly allocated fbufs. Tracked
			// like any other message view, with no discharge
			// obligation: layers hand built messages to the layer
			// below, which the analysis cannot follow.
			return &funcSummary{fresh: []freshKind{fkAlias, fkNone}}
		}
	}
	return nil
}

// computeSummaries extracts contracts for every function declared in the
// package, iterating so that helpers calling helpers converge. Three
// rounds bound the fixpoint: effects flow one call level per round and
// helper chains deeper than that fall back to the conservative default.
func computeSummaries(pass *Pass) map[*types.Func]*funcSummary {
	type declFn struct {
		decl *ast.FuncDecl
		fn   *types.Func
	}
	var decls []declFn
	for _, file := range pass.Files {
		if isTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, declFn{fd, fn})
		}
	}
	sums := map[*types.Func]*funcSummary{}
	for round := 0; round < 3; round++ {
		changed := false
		for _, d := range decls {
			s := summarizeFunc(pass, d.decl, sums)
			if prev := sums[d.fn]; prev == nil || !prev.equal(s) {
				sums[d.fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}
