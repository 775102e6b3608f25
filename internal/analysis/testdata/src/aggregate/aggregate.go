// Package aggregate stubs fbufs/internal/aggregate for the errflow and
// fbuflife corpora.
package aggregate

import "core"

type Msg struct{}

type Ctx struct{}

type Reader struct{}

func (c *Ctx) NewData(data []byte) (*Msg, error)                           { return &Msg{}, nil }
func (c *Ctx) NewFilled(n int, fill func(off int, p []byte)) (*Msg, error) { return &Msg{}, nil }
func (c *Ctx) Join(a, b *Msg) (*Msg, error)                                { return a, nil }
func (c *Ctx) Push(m *Msg, hdr []byte) (*Msg, error)                       { return m, nil }
func (m *Msg) Read(d *core.Domain, off int, buf []byte) error              { return nil }
func (m *Msg) ReadPages(d *core.Domain, fn func(p []byte)) error           { return nil }
func (m *Msg) Free(d *core.Domain) error                                   { return nil }
func (r *Reader) Next(n int) ([]byte, error)                               { return nil, nil }
