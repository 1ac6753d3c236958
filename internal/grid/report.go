package grid

import (
	"encoding/json"
	"fmt"
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

// tally holds the finished cells of results-log records: each cell ID
// once, first record wins. It is the one merge rule behind the report, the
// per-cell progress line, Progress and `status`. The coordinator keeps one
// up to date as it appends; status builds one from the decoded log.
type tally struct {
	cells  map[string]CellResult // by cell ID
	failed int
}

func (t *tally) add(rec Record) {
	if _, dup := t.cells[rec.Cell.ID]; dup {
		return
	}
	t.cells[rec.Cell.ID] = rec.Cell
	if rec.Cell.failed() {
		t.failed++
	}
}

func countRecords(recs []Record) tally {
	t := tally{cells: make(map[string]CellResult, len(recs))}
	for _, rec := range recs {
		t.add(rec)
	}
	return t
}

// buildReport merges the finished cells into the deterministic report.
func buildReport(st *State, t tally) *Report {
	cells := make([]CellResult, 0, len(t.cells))
	for _, c := range t.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].ID < cells[j].ID })
	rep := &Report{Name: st.Spec.withDefaults().Name, SpecHash: st.SpecHash, Total: len(st.Spec.Cells()),
		OK: len(cells) - t.failed, Failed: t.failed}
	for _, c := range cells {
		if c.failed() {
			rep.Failures = append(rep.Failures, c)
		} else {
			rep.Cells = append(rep.Cells, c)
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

// WriteReport writes report.json atomically (writeAtomic), so a reader
// never observes a half-written report.
func WriteReport(dir string, r *Report) error {
	payload, err := r.Marshal()
	if err != nil {
		return err
	}
	return writeAtomic(dir, reportFile, payload)
}
