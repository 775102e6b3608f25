// Package a is the errflow corpus.
package a

import (
	"fmt"

	"aggregate"
	"core"
	"vm"
	"xfer"
)

func implicitDiscards(mgr *core.Manager, p *core.DataPath, f *core.Fbuf, a, b *core.Domain) {
	p.Alloc()              // want "error from DataPath.Alloc is implicitly discarded"
	mgr.Transfer(f, a, b)  // want "error from Manager.Transfer is implicitly discarded"
	f.Write(a, 0, nil)     // want "error from Fbuf.Write is implicitly discarded"
	mgr.Secure(f, b)       // want "error from Manager.Secure is implicitly discarded"
}

func lostInDeferAndGo(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	defer mgr.Free(f, d) // want "error from Manager.Free is lost in a defer statement"
	go f.TouchRead(d)    // want "error from Fbuf.TouchRead is lost in a go statement"
}

func aggregateAndVM(ctx *aggregate.Ctx, m *aggregate.Msg, as *vm.AddrSpace) {
	ctx.Join(m, m)       // want "error from Ctx.Join is implicitly discarded"
	as.Write(0, nil)     // want "error from AddrSpace.Write is implicitly discarded"
}

func payloadAccess(ctx *aggregate.Ctx, m *aggregate.Msg, as *vm.AddrSpace, d *core.Domain) {
	ctx.NewFilled(8, nil)          // want "error from Ctx.NewFilled is implicitly discarded"
	ctx.NewData(nil)               // want "error from Ctx.NewData is implicitly discarded"
	m.ReadPages(d, nil)            // want "error from Msg.ReadPages is implicitly discarded"
	go m.Read(d, 0, nil)           // want "error from Msg.Read is lost in a go statement"
	as.ReadPages(0, 8, nil)        // want "error from AddrSpace.ReadPages is implicitly discarded"
	defer as.WritePages(0, 8, nil) // want "error from AddrSpace.WritePages is lost in a defer statement"
}

func payloadAccessHandled(ctx *aggregate.Ctx, as *vm.AddrSpace, d *core.Domain) error {
	m, err := ctx.NewFilled(8, func(off int, p []byte) {})
	if err != nil {
		return err
	}
	if err := as.WritePages(0, 8, func(p []byte) {}); err != nil {
		return err
	}
	return m.ReadPages(d, func(p []byte) {})
}

func degradedPath(ad *xfer.Adaptive) {
	// Hop degrades to the copy path on allocation failure internally; the
	// error it *returns* is a real fault (dead domain, closed path) and
	// ignoring it hides broken transfers.
	ad.Hop(nil) // want "error from Adaptive.Hop is implicitly discarded"
}

func handledProperly(mgr *core.Manager, p *core.DataPath, f *core.Fbuf, a, b *core.Domain) {
	if err := mgr.Transfer(f, a, b); err != nil {
		fmt.Println("transfer:", err)
	}
	buf, err := p.Alloc()
	if err != nil {
		fmt.Println("alloc:", err)
	}
	_ = buf
}

func explicitDiscard(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	// Visible, reviewable intent: allowed.
	_ = mgr.Free(f, d)
	_, _ = f.Secured(), mgr.Secure(f, d)
}

func unrelatedCalls(d *core.Domain) {
	fmt.Println(d.Name) // non-protocol APIs are out of scope
}
