// Function-local protocol cases: positive cases carry a `// want` on the
// offending line; lines without one assert silence.
package a

import (
	"core"
	"fbufs"
)

// --- write after Transfer ---------------------------------------

func writeAfterTransfer(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain) {
	_ = mgr.Transfer(f, from, to)
	_ = f.Write(from, 0, nil) // want "write to fbuf after Transfer"
}

func touchWriteAfterTransfer(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain) {
	_ = mgr.Transfer(f, from, to)
	_ = f.TouchWrite(from) // want "write to fbuf after Transfer"
}

func writeBeforeTransfer(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain) {
	_ = f.Write(from, 0, nil) // fill, then hand off: the protocol's happy path
	_ = mgr.Transfer(f, from, to)
}

func writeAfterRealloc(mgr *core.Manager, p *core.DataPath, f *core.Fbuf, from, to *core.Domain) {
	_ = mgr.Transfer(f, from, to)
	f, _ = p.Alloc()          // a fresh buffer: the old one is out of scope
	_ = f.Write(from, 0, nil) // no finding: f was reassigned
	_ = mgr.Free(f, from)
}

func writeInOtherBranch(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain, send bool) {
	if send {
		_ = mgr.Transfer(f, from, to)
	} else {
		_ = f.Write(from, 0, nil) // exclusive arms are never ordered
	}
}

// transferThenReturn: the CFG knows the write never follows the transfer.
func transferThenReturn(mgr *core.Manager, f *core.Fbuf, from, to *core.Domain, send bool) {
	if send {
		_ = mgr.Transfer(f, from, to)
		return
	}
	_ = f.Write(from, 0, nil)
}

// --- volatile read without Secure --------------------------------

func volatileReadUnsecured(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // want "read of volatile fbuf by receiver without Secure"
}

func volatileReadSecured(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = mgr.Secure(f, cons)
	_ = f.Read(cons, 0, buf) // secured first: no finding
}

func volatileReadAcknowledged(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	if f.Secured() {
		_ = f.Read(cons, 0, buf) // explicit Secured() branch acknowledges volatility
	}
}

func nonVolatileRead(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedNonVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // non-volatile: transfer already revoked the writer
}

func originatorRead(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(prod, 0, buf) // the originator trusts its own writes
}

func volatileViaOptionsVar(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	opts := core.Options{Volatile: true, Cached: true}
	path, _ := mgr.NewPath("p", opts, 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // want "read of volatile fbuf by receiver without Secure"
}

func volatileUncachedAlloc(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	f, _ := mgr.AllocUncached(prod, 1, core.Uncached())
	_ = mgr.Transfer(f, prod, cons)
	_ = f.TouchRead(cons) // want "read of volatile fbuf by receiver without Secure"
}

// The examples/quickstart shape through the fbufs facade: a Secured()
// check in a condition acknowledges volatility for every later read.
func facadeAcknowledged(sys *fbufs.System, prod, cons *fbufs.Domain, buf []byte) {
	path, _ := sys.NewPath("p", fbufs.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = sys.Fbufs.Transfer(f, prod, cons)
	if !f.Secured() {
		// a cooperating receiver skips the Secure
	}
	_ = f.Read(cons, 0, buf) // acknowledged above
}

func facadeUnacknowledged(sys *fbufs.System, prod, cons *fbufs.Domain, buf []byte) {
	path, _ := sys.NewPath("p", fbufs.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = sys.Fbufs.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // want "read of volatile fbuf by receiver without Secure"
}

func facadeNonVolatile(sys *fbufs.System, prod, cons *fbufs.Domain, buf []byte) {
	path, _ := sys.NewPath("p", fbufs.CachedNonVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = sys.Fbufs.Transfer(f, prod, cons)
	_ = f.Read(cons, 0, buf) // non-volatile: transfer already revoked the writer
}

func facadeOriginatorRead(sys *fbufs.System, prod, cons *fbufs.Domain, buf []byte) {
	path, _ := sys.NewPath("p", fbufs.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = sys.Fbufs.Transfer(f, prod, cons)
	_ = f.Read(prod, 0, buf) // the originator trusts its own writes
}

// secureFor raises protection on the receiver's behalf.
func secureFor(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	_ = mgr.Secure(f, d)
}

func volatileReadHelperSecured(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	secureFor(mgr, f, cons)
	_ = f.Read(cons, 0, buf) // secured through the helper's summary
}

// readAs reads on behalf of d: the summary carries d as the reader.
func readAs(f *core.Fbuf, d *core.Domain, buf []byte) {
	_ = f.Read(d, 0, buf)
}

func volatileReadThroughHelper(mgr *core.Manager, prod, cons *core.Domain, buf []byte) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	readAs(f, cons, buf) // want "read of volatile fbuf by receiver without Secure"
}

func writeAfterAcknowledgment(mgr *core.Manager, prod, cons *core.Domain) {
	path, _ := mgr.NewPath("p", core.CachedVolatile(), 4, prod, cons)
	f, _ := path.Alloc()
	_ = mgr.Transfer(f, prod, cons)
	if f.Secured() {
		return
	}
	_ = f.Write(prod, 0, nil) // want "write to fbuf after Transfer"
}

// --- double Free -------------------------------------------------

func doubleFree(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	_ = mgr.Free(f, d)
	_ = mgr.Free(f, d) // want "fbuf freed twice in the same domain"
}

func freeThrice(mgr *core.Manager, f *core.Fbuf, d *core.Domain) {
	_ = mgr.Free(f, d)
	_ = mgr.Free(f, d) // want "fbuf freed twice in the same domain"
	_ = mgr.Free(f, d) // want "already freed at .*local.go:182$"
}

func freeByEachDomain(mgr *core.Manager, f *core.Fbuf, a, b *core.Domain) {
	_ = mgr.Free(f, a)
	_ = mgr.Free(f, b) // each holder drops its own reference: fine
}

func freeReallocFree(mgr *core.Manager, p *core.DataPath, d *core.Domain) {
	f, _ := p.Alloc()
	_ = mgr.Free(f, d)
	f, _ = p.Alloc() // a different buffer under the same name
	_ = mgr.Free(f, d)
}

func freeInBranches(mgr *core.Manager, f *core.Fbuf, d *core.Domain, early bool) {
	if early {
		_ = mgr.Free(f, d)
	} else {
		_ = mgr.Free(f, d) // exclusive arms: only one free executes
	}
}
