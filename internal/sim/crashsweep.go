// Crash-point enumeration: run a workload, crash it at the Nth metadata
// persist point, power-cycle without battery, run the recovery scrub and
// check that the surviving NVM image is correct, detected-bad, or
// consistently stale — never silently wrong.

package sim

import (
	"errors"
	"fmt"

	"lelantus/internal/core"
	"lelantus/internal/faultinject"
	"lelantus/internal/mem"
	"lelantus/internal/workload"
)

// CrashPoints counts the persist points a script exercises under cfg: the
// index space a crash sweep enumerates. The plane is attached but disarmed,
// so the run's behaviour and timing are identical to a plain run.
func CrashPoints(cfg Config, s workload.Script, seed int64) (uint64, error) {
	plane := faultinject.New(seed)
	cfg.Mem.FaultPlane = plane
	m, err := NewMachine(cfg)
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(s); err != nil {
		return 0, err
	}
	return plane.Hits(), nil
}

// CrashCell is the outcome of one sweep cell: a crash forced at one persist
// point, followed by an unbattery-backed power cycle and a recovery scrub.
type CrashCell struct {
	Point      uint64               `json:"point"`
	At         faultinject.Point    `json:"at"`
	Report     *core.RecoveryReport `json:"report"`
	Violations []string             `json:"violations,omitempty"`
}

// CrashAt runs the script until persist point n, crashes there (no battery:
// every volatile structure is lost), recovers, and verifies the invariants.
// The run must actually reach the point — a script/config pair with fewer
// persist points than n is an error, not a silent pass.
func CrashAt(cfg Config, s workload.Script, seed int64, n uint64) (CrashCell, error) {
	m, plane, err := runToCrash(cfg, s, seed, n)
	if err != nil {
		return CrashCell{}, err
	}
	pt, hit, _ := plane.Crashed()
	cell := CrashCell{Point: hit, At: pt}

	// Power-cycle at the moment of the crash: no battery, so the counter
	// cache, the CoW-mapping cache, the data caches and the write queue are
	// all gone. Then scrub.
	if err := m.Ctl.Crash(m.Now(), false); err != nil {
		return cell, fmt.Errorf("sim: post-fault power cycle: %w", err)
	}
	rep, err := m.Ctl.Recover()
	if err != nil {
		return cell, fmt.Errorf("sim: recovery scrub: %w", err)
	}
	cell.Report = rep
	cell.Violations = append(rep.Violations(), checkReadBack(m, plane)...)
	return cell, nil
}

// runToCrash runs the script on a machine whose fault plane, shadow history
// on, is armed at persist point n, and returns the machine as the crash left
// it: stopped, before the power cycle.
func runToCrash(cfg Config, s workload.Script, seed int64, n uint64) (*Machine, *faultinject.Plane, error) {
	plane := faultinject.New(seed)
	plane.EnableShadow()
	plane.ArmCrashAt(n)
	cfg.Mem.FaultPlane = plane
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, nil, err
	}
	_, runErr := m.Run(s)
	if runErr == nil {
		return nil, nil, fmt.Errorf("sim: crash point %d never fired (script has fewer persist points)", n)
	}
	if !errors.Is(runErr, faultinject.ErrCrash) {
		return nil, nil, fmt.Errorf("sim: crash run failed before the armed point: %w", runErr)
	}
	return m, plane, nil
}

// OracleLineStride bounds the read-back scan: every stride-th line of each
// mapped frame is probed. Sweep scripts confine their stores to these line
// indices so the oracle still sees every written line.
const OracleLineStride = 8

// checkReadBack walks every live process's page tables and re-reads the
// mapped frames after recovery. Each read must either fail (detected
// corruption — the design working) or return a value that the durable
// metadata can account for: zeros when the redirect chain bottoms out at
// unwritten state, else some value that was actually persisted to the
// resolved line. Anything else is silent corruption.
func checkReadBack(m *Machine, plane *faultinject.Plane) []string {
	eng := m.Ctl.Engine
	var violations []string
	seen := make(map[uint64]bool)
	probe := func(pfn uint64) {
		if seen[pfn] {
			return
		}
		seen[pfn] = true
		for i := 0; i < mem.LinesPerPage; i += OracleLineStride {
			la := mem.LineAddr(pfn, i)
			plain, _, err := eng.ReadLine(m.Now(), la)
			if err != nil {
				continue // detected: MAC or tree verification refused the read
			}
			resolved, zeros, ok := resolveExpected(eng.Image(), eng.Scheme(), la)
			if !ok {
				violations = append(violations,
					fmt.Sprintf("line %#x: durable redirect chain does not terminate", la))
				continue
			}
			if zeros {
				if plain != ([mem.LineBytes]byte{}) {
					violations = append(violations,
						fmt.Sprintf("line %#x: metadata resolves to zeros but read returned data", la))
				}
				continue
			}
			if !inHistory(plane, resolved, &plain) {
				violations = append(violations,
					fmt.Sprintf("line %#x: read value was never written to resolved line %#x", la, resolved))
			}
		}
	}
	for _, pid := range m.Kern.Pids() {
		p := m.Kern.Process(pid)
		if p == nil {
			continue
		}
		for _, pte := range p.PT {
			probe(pte.PFN)
		}
		for _, pte := range p.PTH {
			for f := uint64(0); f < mem.FramesPerHuge; f++ {
				probe(pte.PFN + f)
			}
		}
	}
	return violations
}

// resolveExpected follows the durable CoW metadata of a scheme's image from
// a line to the line that should hold its data: the image is all it is
// handed, so the metadata caches play no part. zeros reports a chain that
// bottoms out in fresh or zero-initialised state.
func resolveExpected(img *core.DurableImage, scheme core.Scheme, lineAddr uint64) (resolved uint64, zeros, ok bool) {
	cur := lineAddr
	for hops := 0; hops < 128; hops++ {
		pfn := mem.PageOf(cur)
		i := mem.LineIndex(cur)
		blk, has := img.Block(pfn)
		if !has {
			// Never-materialised page (e.g. the shared zero frame): fresh
			// memory reads as zeros.
			return 0, true, true
		}
		switch scheme {
		case core.Lelantus:
			if blk.CoW && blk.Minor[i] == 0 {
				cur = mem.LineAddr(blk.Src, i)
				continue
			}
		case core.LelantusCoW:
			if blk.Minor[i] == 0 {
				src, present := img.CoWEntry(pfn)
				if !present {
					return 0, true, true
				}
				cur = mem.LineAddr(src, i)
				continue
			}
		case core.SilentShredder:
			if blk.Minor[i] == 0 {
				return 0, true, true
			}
		}
		if !img.LineWritten(cur) {
			return 0, true, true
		}
		return cur, false, true
	}
	return 0, false, false
}

// inHistory reports whether plain matches any data image that actually
// landed on the line (the fault plane's shadow history), i.e. the read is
// at worst consistently stale.
func inHistory(plane *faultinject.Plane, lineAddr uint64, plain *[mem.LineBytes]byte) bool {
	if *plain == ([mem.LineBytes]byte{}) {
		// All-zero content is always accountable: fresh memory.
		return true
	}
	for _, img := range plane.ShadowHistory(lineAddr) {
		if img == *plain {
			return true
		}
	}
	return false
}
