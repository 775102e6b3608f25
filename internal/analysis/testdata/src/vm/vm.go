// Package vm stubs fbufs/internal/vm for the errflow and obshook corpora.
package vm

type AddrSpace struct{}

func (as *AddrSpace) Write(va int, data []byte) error                     { return nil }
func (as *AddrSpace) Read(va int, buf []byte) error                       { return nil }
func (as *AddrSpace) WritePages(va int, n int, fill func(p []byte)) error { return nil }
func (as *AddrSpace) ReadPages(va int, n int, fn func(p []byte)) error    { return nil }
func (as *AddrSpace) TouchWrite(va int) error                             { return nil }
func (as *AddrSpace) TouchRead(va int) error                              { return nil }

// Meter matches the simulated-time sink obshook polices.
type Meter struct{ Total int64 }

func (m *Meter) Charge(d int64) { m.Total += d }
