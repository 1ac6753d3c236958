package sim

import (
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
)

// RunToCrash is runToCrash: the machine and plane as an armed crash left
// them, stopped before the power cycle.
var RunToCrash = runToCrash

// CheckReadBack is checkReadBack, the crash sweep's read-back oracle.
var CheckReadBack = checkReadBack

// WriteUnobserved writes plain to the data line at addr through the
// engine's own write path, sealed and MACed like any write, with the fault
// plane detached: the line's durable plaintext changes but never enters the
// plane's shadow history. It is the engine bug the read-back oracle exists
// to catch.
func WriteUnobserved(m *Machine, plane *faultinject.Plane, addr uint64, plain *[mem.LineBytes]byte) error {
	queued := m.Ctl.Queue != nil
	m.Ctl.Engine.AttachFaultPlane(nil, queued)
	defer m.Ctl.Engine.AttachFaultPlane(plane, queued)
	_, err := m.Ctl.Engine.WriteLine(m.Now(), addr, plain)
	return err
}
