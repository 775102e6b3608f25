// Package fbufs is a shape-faithful stub of the public fbufs facade: type
// aliases over core, the options constructors re-exported as vars, and
// System.NewPath as the path constructor.
package fbufs

import "core"

type (
	Domain   = core.Domain
	DataPath = core.DataPath
	Fbuf     = core.Fbuf
	Options  = core.Options
)

var (
	CachedVolatile    = core.CachedVolatile
	CachedNonVolatile = core.CachedNonVolatile
)

// System mirrors fbufs.System: the manager is the exported Fbufs field.
type System struct{ Fbufs *core.Manager }

func (s *System) NewPath(name string, opts Options, fbufPages int, domains ...*Domain) (*DataPath, error) {
	return s.Fbufs.NewPath(name, opts, fbufPages, domains...)
}
