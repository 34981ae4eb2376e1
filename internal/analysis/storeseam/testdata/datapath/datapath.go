// Package datapath is storeseam analyzer testdata. It is loaded by the
// test harness under a datapath import path so the invariant applies.
package datapath

import "wfqsort/internal/membus"

// Structure models a datapath structure holding a fabric region (debug
// ports) and its functional port.
type Structure struct {
	reg  *membus.Region
	port *membus.Port
}

// peeker mirrors a per-level debug-port abstraction.
type peeker interface {
	Peek(addr int) (uint64, error)
}

// Good reads and writes through the arbitrated port.
func (s *Structure) Good() error {
	w, err := s.port.Read(0)
	if err != nil {
		return err
	}
	return s.port.Write(1, w)
}

// GoodBulk reinitializes the region; Wipe and Clear are not debug
// ports.
func (s *Structure) GoodBulk() {
	s.reg.Wipe()
	s.reg.Clear()
}

// BadPeek uses the debug port on a functional path.
func (s *Structure) BadPeek() (uint64, error) {
	return s.reg.Peek(0) // want `Peek debug port used in functional file datapath.go`
}

// BadPoke uses the test-setup port on a functional path.
func (s *Structure) BadPoke() error {
	return s.reg.Poke(0, 7) // want `Poke debug port used in functional file datapath.go`
}

// BadPortRegionPeek reaches the debug port back through the port.
func (s *Structure) BadPortRegionPeek() (uint64, error) {
	return s.port.Region().Peek(0) // want `Peek debug port used in functional file datapath.go`
}

// BadInterfacePeek reaches the debug port through an interface.
func (s *Structure) BadInterfacePeek(p peeker) (uint64, error) {
	return p.Peek(0) // want `Peek debug port used in functional file datapath.go`
}

// JustifiedPeek carries an ignore directive with a reason and is not
// reported.
func (s *Structure) JustifiedPeek() (uint64, error) {
	//wfqlint:ignore storeseam head-register shadow check reads the physical array by design
	return s.reg.Peek(0)
}
