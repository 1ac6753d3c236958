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
// to catch. The write's counter update is drained too, so the plant is in
// the durable image the oracle reads, not only in the counter cache.
func WriteUnobserved(m *Machine, plane *faultinject.Plane, addr uint64, plain *[mem.LineBytes]byte) error {
	queued := m.Ctl.Queue != nil
	m.Ctl.Engine.AttachFaultPlane(nil, queued)
	defer m.Ctl.Engine.AttachFaultPlane(plane, queued)
	if _, err := m.Ctl.Engine.WriteLine(m.Now(), addr, plain); err != nil {
		return err
	}
	_, err := m.Ctl.Engine.DrainMetadata(m.Now())
	return err
}
