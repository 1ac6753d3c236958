package grid

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Directory layout of one grid run:
//
//	state.json   the grid's identity, written once by Create
//	results.log  append-only checksummed JSONL of finished cells: the
//	             only record of progress
//	report.json  merged report, written atomically on completion
const (
	stateFile  = "state.json"
	logFile    = "results.log"
	reportFile = "report.json"
)

// State is the grid's write-once identity: the resolved spec (so `resume`
// needs only the directory) and its hash (so a resumed spec mismatch is an
// error, not a silent merge of two grids). It holds nothing that changes
// during a run: which cells are finished, and how many failed, is a
// function of the results log, and everything that reports progress
// counts it from there.
type State struct {
	Version  int    `json:"version"`
	SpecHash string `json:"specHash"`
	Spec     Spec   `json:"spec"`
}

// stateVersion stays 1 across the removal of the old total/done/failed
// counters: encoding/json ignores unknown fields, so a directory written
// with them still loads, and its spec hash never covered them.
const stateVersion = 1

// SaveState writes state.json atomically (writeAtomic). Create is its only
// caller.
func SaveState(dir string, st *State) error {
	payload, err := json.MarshalIndent(st, "", " ")
	if err != nil {
		return fmt.Errorf("grid: marshal state: %w", err)
	}
	return writeAtomic(dir, stateFile, append(payload, '\n'))
}

// writeAtomic replaces dir/name with payload by the classic sequence: write
// a temp file in the same directory, fsync, rename over the name. A SIGKILL
// at any instant leaves the old file or the whole new one, never a torn one.
func writeAtomic(dir, name string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("grid: write %s: %w", name, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(payload)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return fmt.Errorf("grid: write %s: %w", name, err)
	}
	return nil
}

// LoadState reads and cross-checks a checkpoint: the version must be
// known, and the recorded spec hash must match the hash re-derived from
// the recorded spec — a hand-edited or half-migrated checkpoint fails
// loudly instead of resuming the wrong grid.
func LoadState(dir string) (*State, error) {
	data, err := os.ReadFile(filepath.Join(dir, stateFile))
	if err != nil {
		return nil, fmt.Errorf("grid: no checkpoint in %s (run `lelantus-grid run` first): %w", dir, err)
	}
	var st State
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, fmt.Errorf("grid: corrupt checkpoint %s: %w", filepath.Join(dir, stateFile), err)
	}
	if st.Version != stateVersion {
		return nil, fmt.Errorf("grid: checkpoint version %d (this build understands %d)", st.Version, stateVersion)
	}
	if got := st.Spec.Hash(); got != st.SpecHash {
		return nil, fmt.Errorf("grid: checkpoint spec hash %s does not match its spec (%s): refusing to resume a tampered grid", st.SpecHash, got)
	}
	return &st, nil
}
