package aggregate

import (
	"slices"
	"testing"

	"fbufs/internal/core"
)

// dataFbufs returns the fbufs behind m's segments, first-seen order.
func dataFbufs(m *Msg) []*core.Fbuf {
	var out []*core.Fbuf
	for _, s := range m.Segs() {
		if s.F != nil && !slices.Contains(out, s.F) {
			out = append(out, s.F)
		}
	}
	return out
}

// nodeOnly returns the fbufs in m's reference set that back no segment.
func nodeOnly(m *Msg) []*core.Fbuf {
	data := dataFbufs(m)
	var out []*core.Fbuf
	for _, f := range m.Fbufs() {
		if !slices.Contains(data, f) {
			out = append(out, f)
		}
	}
	return out
}

// TestMessageFbufOrder pins the order of a message's reference set, which
// is the order Transfer, Secure and Free walk it and so the order of the
// event stream: data fbufs in first-seen segment order, then node fbufs —
// a built chain's in VA order, a join's as the operands listed theirs,
// then the join's own pair node.
func TestMessageFbufOrder(t *testing.T) {
	r := newRig(t)
	c := r.ctx(t, true, 1)
	mk := func(n int) *Msg {
		m, err := c.NewData(pattern(n))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// 200 one-page segments need 399 nodes: several node fbufs. Building
	// and freeing one such message first leaves the node fbufs on the
	// LIFO free list, so the next build draws them in descending VA order.
	if err := mk(200 * 4096).Free(r.src); err != nil {
		t.Fatal(err)
	}
	a := mk(200 * 4096)
	if got := nodeOnly(a); len(got) < 3 || !slices.IsSortedFunc(got, byBase) {
		t.Fatalf("built message's node fbufs %d, not in VA order", len(got))
	}
	if !slices.Equal(a.Fbufs()[:len(dataFbufs(a))], dataFbufs(a)) {
		t.Fatal("built message does not list its data fbufs first, in segment order")
	}
	b := mk(3 * 4096)
	wantData := append(dataFbufs(a), dataFbufs(b)...)
	wantNodes := append(nodeOnly(a), nodeOnly(b)...)
	j, err := c.Join(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := j.Fbufs()
	if !slices.Equal(got[:len(wantData)], wantData) {
		t.Fatal("join does not list the operands' data fbufs first, in segment order")
	}
	rest := got[len(wantData):]
	var want []*core.Fbuf
	for _, f := range append(wantNodes, c.cur) {
		if !slices.Contains(want, f) {
			want = append(want, f)
		}
	}
	if !slices.Equal(rest, want) {
		t.Fatalf("join's node fbufs %v, want the operands' in their order then the pair node's %v", rest, want)
	}
	if err := j.Free(r.src); err != nil {
		t.Fatal(err)
	}
}
