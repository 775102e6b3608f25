package aggregate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fbufs/internal/core"
	"fbufs/internal/domain"
	"fbufs/internal/machine"
	"fbufs/internal/obs/span"
	"fbufs/internal/vm"
)

// Integrated-mode DAG node encoding. Nodes are 32-byte records written into
// fbuf memory; because the fbuf region is mapped at the same virtual
// address in every domain, node "pointers" are plain virtual addresses
// valid everywhere, with no translation at transfer time (section 3.2.3).
//
//	offset 0: kind  (0 = empty leaf, 1 = leaf, 2 = pair)
//	offset 4: u32   length (leaf: data bytes; pair: advisory total)
//	offset 8: u64   A (leaf: data VA; pair: left child VA)
//	offset 16: u64  B (pair: right child VA)
//
// Nodes are 32-byte aligned and never cross a page boundary. A page of
// zeros decodes as an empty leaf — this is what makes the section 3.2.4
// empty-leaf-page trick work: an unpermitted read is satisfied with zeroed
// memory and the reference "appears as the absence of data".
const (
	nodeSize  = 32
	kindEmpty = 0
	kindLeaf  = 1
	kindPair  = 2

	// maxNodes bounds a traversal; combined with on-path cycle detection
	// it guarantees termination against adversarial DAGs.
	maxNodes = 16384
)

// Traversal errors (receiver-side validation, section 3.2.4).
var (
	ErrBadPointer = errors.New("aggregate: DAG pointer outside fbuf region")
	ErrCycle      = errors.New("aggregate: cycle in DAG")
	ErrTooLarge   = errors.New("aggregate: DAG exceeds node limit")
	ErrBadNode    = errors.New("aggregate: malformed DAG node")
)

func encodeLeaf(buf []byte, dataVA vm.VA, n int) {
	buf[0] = kindLeaf
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint64(buf[8:], uint64(dataVA))
	binary.LittleEndian.PutUint64(buf[16:], 0)
}

func encodePair(buf []byte, left, right vm.VA, total int) {
	buf[0] = kindPair
	binary.LittleEndian.PutUint32(buf[4:], uint32(total))
	binary.LittleEndian.PutUint64(buf[8:], uint64(left))
	binary.LittleEndian.PutUint64(buf[16:], uint64(right))
}

// EmptyLeafImage writes the canonical empty-leaf encoding; installed as
// core.Manager.EmptyLeafInit so synthesized pages decode cleanly. (All
// zeros already decodes as empty; this just makes the kind explicit.)
func EmptyLeafImage(page []byte) {
	page[0] = kindEmpty
}

// allocNode reserves a 32-byte node slot in the context's arena, rotating
// to a fresh node fbuf when the current one fills. The arena keeps its own
// reference on the current fbuf; operations take additional references for
// the messages they build.
func (c *Ctx) allocNode() (vm.VA, *core.Fbuf, error) {
	// Rotate when full — or when the current node fbuf became immutable
	// because a message using it was transferred under non-volatile (or
	// explicitly secured) rules; buffers are never modified once secured.
	if c.cur == nil || c.curOff+nodeSize > c.cur.Size() || c.cur.Secured() {
		var nf *core.Fbuf
		var err error
		if c.nodes != nil {
			nf, err = c.nodes.Alloc()
		} else {
			opts := c.uncachedOpts
			nf, err = c.Mgr.AllocUncached(c.Dom, 1, opts)
		}
		if err != nil {
			return 0, nil, err
		}
		if c.cur != nil {
			c.retired = append(c.retired, c.cur)
		}
		c.cur = nf
		c.curOff = 0
	}
	va := c.cur.Base + vm.VA(c.curOff)
	c.curOff += nodeSize
	return va, c.cur, nil
}

// writeNode encodes and stores one node, noting its node fbuf in the Ctx's
// scratch list of fbufs the current construction has touched.
func (c *Ctx) writeNode(enc []byte) (vm.VA, error) {
	va, f, err := c.allocNode()
	if err != nil {
		return 0, err
	}
	if err := f.Write(c.Dom, int(va-f.Base), enc); err != nil {
		return 0, err
	}
	if n := len(c.nodeBuf); n == 0 || c.nodeBuf[n-1] != f {
		c.nodeBuf = append(c.nodeBuf, f)
	}
	return va, nil
}

// touchedNodes returns the node fbufs written since the construction
// began, ordered by region VA (the stable identity of an fbuf within one
// manager): callers transfer the returned list, so any other order would
// leak into the event stream and break byte-identical traces. The list is
// the Ctx's scratch buffer: valid until the next construction.
func (c *Ctx) touchedNodes() []*core.Fbuf {
	slices.SortFunc(c.nodeBuf, byBase)
	c.nodeBuf = slices.Compact(c.nodeBuf)
	return c.nodeBuf
}

// buildRoot writes a right-leaning leaf/pair chain describing segs and
// returns the root VA plus the node fbufs used.
func (c *Ctx) buildRoot(segs []Seg, total int) (vm.VA, []*core.Fbuf, error) {
	c.nodeBuf = c.nodeBuf[:0]
	var enc [nodeSize]byte
	if len(segs) == 0 {
		enc[0] = kindEmpty
		root, err := c.writeNode(enc[:])
		if err != nil {
			return 0, nil, err
		}
		return root, c.touchedNodes(), nil
	}
	// Leaves, then chain pairs right to left.
	leaves := slices.Grow(c.leafBuf[:0], len(segs))[:len(segs)]
	c.leafBuf = leaves
	for i, s := range segs {
		encodeLeaf(enc[:], s.VA, s.N)
		va, err := c.writeNode(enc[:])
		if err != nil {
			return 0, nil, err
		}
		leaves[i] = va
	}
	root := leaves[len(leaves)-1]
	rest := segs[len(segs)-1].N
	for i := len(leaves) - 2; i >= 0; i-- {
		rest += segs[i].N
		encodePair(enc[:], leaves[i], root, rest)
		va, err := c.writeNode(enc[:])
		if err != nil {
			return 0, nil, err
		}
		root = va
	}
	return root, c.touchedNodes(), nil
}

// joinRoot writes the single pair node a Join needs, reusing both operand
// DAGs as subtrees.
func (c *Ctx) joinRoot(left, right vm.VA, total int) (vm.VA, []*core.Fbuf, error) {
	c.nodeBuf = c.nodeBuf[:0]
	var enc [nodeSize]byte
	encodePair(enc[:], left, right, total)
	root, err := c.writeNode(enc[:])
	if err != nil {
		return 0, nil, err
	}
	return root, c.touchedNodes(), nil
}

// Open reconstructs a message view from a DAG root, as a receiving domain
// must after an integrated transfer. The traversal implements all three
// section 3.2.4 safeguards:
//
//  1. every DAG pointer is range-checked against the fbuf region;
//  2. cycles are detected (and total node count bounded), so traversal
//     always terminates even against an adversarial or corrupted DAG;
//  3. reads of addresses the receiver has no permission for complete
//     against the VM's empty-leaf page, so dangling references appear as
//     the absence of data rather than a crash.
func Open(mgr *core.Manager, d *domain.Domain, rootVA vm.VA) (*Msg, error) {
	if o := mgr.Sys.Obs; o != nil {
		o.SpanBegin(span.StageMap, "aggregate", int(d.ID)+mgr.Sys.TraceBase, int64(rootVA))
		defer o.SpanEnd()
	}
	w := &walker{mgr: mgr, d: d, onPath: map[vm.VA]bool{}}
	if err := w.walk(rootVA); err != nil {
		return nil, err
	}
	m := &Msg{
		mgr:        mgr,
		integrated: true,
		rootVA:     rootVA,
		segs:       w.segs,
		length:     totalLen(w.segs),
	}
	// The message's reference set is the fbufs the traversal discovered
	// that this domain actually holds (granted by the sender's transfer).
	var held []*core.Fbuf
	for _, f := range w.fbufList {
		if f.HeldBy(d) {
			held = append(held, f)
		}
	}
	m.fbufs = held
	return m, nil
}

type walker struct {
	mgr    *core.Manager
	d      *domain.Domain
	onPath map[vm.VA]bool
	count  int
	segs   []Seg

	fbufSeen map[*core.Fbuf]bool
	fbufList []*core.Fbuf
}

func (w *walker) note(f *core.Fbuf) {
	if f == nil {
		return
	}
	if w.fbufSeen == nil {
		w.fbufSeen = map[*core.Fbuf]bool{}
	}
	if !w.fbufSeen[f] {
		w.fbufSeen[f] = true
		w.fbufList = append(w.fbufList, f)
	}
}

func (w *walker) walk(va vm.VA) error {
	if !w.mgr.InRegion(va) {
		return fmt.Errorf("%w: node %#x", ErrBadPointer, uint64(va))
	}
	if va%nodeSize != 0 {
		return fmt.Errorf("%w: unaligned node %#x", ErrBadNode, uint64(va))
	}
	if w.onPath[va] {
		return fmt.Errorf("%w via node %#x", ErrCycle, uint64(va))
	}
	w.count++
	if w.count > maxNodes {
		return ErrTooLarge
	}
	w.onPath[va] = true
	defer delete(w.onPath, va)

	var enc [nodeSize]byte
	if err := w.d.AS.Read(va, enc[:]); err != nil {
		// A non-volatile configuration faults here instead of
		// synthesizing an empty leaf; surface the violation.
		return fmt.Errorf("aggregate: node read: %w", err)
	}
	w.note(w.mgr.FbufAt(va))
	kind := enc[0]
	n := int(binary.LittleEndian.Uint32(enc[4:]))
	a := vm.VA(binary.LittleEndian.Uint64(enc[8:]))
	b := vm.VA(binary.LittleEndian.Uint64(enc[16:]))
	switch kind {
	case kindEmpty:
		return nil
	case kindLeaf:
		if n == 0 {
			return nil
		}
		if n < 0 || n > machine.PageSize*core.DefaultChunkPages {
			return fmt.Errorf("%w: leaf length %d", ErrBadNode, n)
		}
		if !w.mgr.InRegion(a) || !w.mgr.InRegion(a+vm.VA(n-1)) {
			return fmt.Errorf("%w: leaf data [%#x,+%d)", ErrBadPointer, uint64(a), n)
		}
		f := w.mgr.FbufAt(a)
		if f != nil && !f.Contains(a+vm.VA(n-1)) {
			return fmt.Errorf("%w: leaf data crosses fbuf boundary", ErrBadNode)
		}
		w.note(f)
		w.segs = append(w.segs, Seg{F: f, VA: a, N: n})
		return nil
	case kindPair:
		if err := w.walk(a); err != nil {
			return err
		}
		return w.walk(b)
	default:
		return fmt.Errorf("%w: kind %d at %#x", ErrBadNode, kind, uint64(va))
	}
}
