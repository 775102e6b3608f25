// Batch-API cases: FreeBatch covers every element of its slice,
// AllocBatch resets them, and distinct constant indices never alias each
// other.
package a

import "core"

func doubleFreeBatch(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.FreeBatch(bufs, d)
	_ = mgr.FreeBatch(bufs, d) // want "fbuf freed twice in the same domain"
}

func freeBatchThenElement(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.FreeBatch(bufs, d)
	_ = mgr.Free(bufs[0], d) // want "fbuf freed twice in the same domain"
}

func elementThenFreeBatch(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[1], d)
	_ = mgr.FreeBatch(bufs, d) // want "fbuf freed twice in the same domain"
}

func writeAfterTransferElement(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Transfer(bufs[1], from, to)
	_ = bufs[1].Write(from, 0, nil) // want "write to fbuf after Transfer"
}

func writeOtherElementAfterTransfer(mgr *core.Manager, p *core.DataPath, from, to *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Transfer(bufs[1], from, to)
	_ = bufs[0].Write(from, 0, nil) // a different element: still the originator's
}

func distinctElementsFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[0], d)
	_ = mgr.Free(bufs[1], d) // distinct concrete elements: two buffers, two frees
}

func sameIndexedElementFree(mgr *core.Manager, p *core.DataPath, d *core.Domain, i int) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[i], d)
	_ = mgr.Free(bufs[i], d) // want "fbuf freed twice in the same domain"
}

func allocBatchResets(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.FreeBatch(bufs, d)
	_, _ = p.AllocBatch(bufs) // refilled: these are fresh buffers
	_ = mgr.FreeBatch(bufs, d)
}

func freeBatchByEachDomain(mgr *core.Manager, p *core.DataPath, a, b *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.FreeBatch(bufs, a)
	_ = mgr.FreeBatch(bufs, b) // each domain drops its own references
}

func constElementTwice(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[0], d)
	_ = mgr.Free(bufs[1], d)
	_ = mgr.Free(bufs[0], d) // want "fbuf freed twice in the same domain"
}

func constElementThenRange(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	bufs := make([]*core.Fbuf, 2)
	_, _ = p.AllocBatch(bufs)
	_ = mgr.Free(bufs[0], d)
	for _, f := range bufs {
		_ = mgr.Free(f, d) // want "fbuf freed twice in the same domain"
	}
}
