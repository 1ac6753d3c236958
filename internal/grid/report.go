package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Report is the merged outcome of a grid: every cell's result keyed and
// sorted by cell ID, with failed cells split into their own section.
// Determinism contract: the report is a pure function of the spec and the
// per-cell outcomes — cells are sorted by ID (never by completion order),
// duplicates dedupe first-wins, and nothing schedule- or host-dependent is
// included — so the same spec produces a byte-identical report at any
// worker count, any run order, and across any kill/resume sequence.
// (Cells that fail *nondeterministically* — a wall-clock timeout, an OOM-
// killed worker — are honestly reported and naturally outside that
// guarantee; a deterministic simulation error reproduces bit for bit.)
type Report struct {
	Name     string       `json:"name"`
	SpecHash string       `json:"specHash"`
	Total    int          `json:"total"`
	OK       int          `json:"ok"`
	Failed   int          `json:"failed"`
	Cells    []CellResult `json:"cells"`
	Failures []CellResult `json:"failures,omitempty"`
}

// BuildReport merges records into the deterministic report.
func BuildReport(st *State, recs []Record) *Report {
	byID := make(map[string]CellResult, len(recs))
	for _, rec := range recs {
		if _, dup := byID[rec.Cell.ID]; !dup {
			byID[rec.Cell.ID] = rec.Cell
		}
	}
	cells := make([]CellResult, 0, len(byID))
	for _, c := range byID {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	rep := &Report{Name: st.Spec.withDefaults().Name, SpecHash: st.SpecHash, Total: st.Total}
	for _, c := range cells {
		if c.failed() {
			rep.Failures = append(rep.Failures, c)
			rep.Failed++
		} else {
			rep.Cells = append(rep.Cells, c)
			rep.OK++
		}
	}
	return rep
}

// Marshal renders the canonical report bytes (the ones byte-compared by
// the kill-resume test and `make grid-smoke`).
func (r *Report) Marshal() ([]byte, error) {
	payload, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return nil, fmt.Errorf("grid: marshal report: %w", err)
	}
	return append(payload, '\n'), nil
}

// WriteReport writes report.json with the same atomic tmp+rename sequence
// as the checkpoint, so a reader never observes a half-written report.
func WriteReport(dir string, r *Report) error {
	payload, err := r.Marshal()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, reportFile+".tmp-*")
	if err != nil {
		return fmt.Errorf("grid: report: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: report write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("grid: report sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("grid: report close: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, reportFile)); err != nil {
		return fmt.Errorf("grid: report rename: %w", err)
	}
	return nil
}
