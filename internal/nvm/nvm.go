// Package nvm models the timing and endurance behaviour of the non-volatile
// memory device behind the secure controller: bank-level parallelism, open
// row buffers, asymmetric read/write latency (Table III: 60 ns read, 150 ns
// write), and per-line wear counting for lifetime analysis.
package nvm

// Config describes the device geometry and latencies.
type Config struct {
	Ranks        int
	BanksPerRank int
	RowBytes     uint64 // bytes per row buffer
	ReadNs       uint64
	WriteNs      uint64
	// RowHitPct scales the access latency (in percent) when the access hits
	// the currently open row of its bank.
	RowHitPct uint64
	// TrackWear enables per-line write counting (costs memory on very long
	// runs; the experiments that report lifetime enable it).
	TrackWear bool
}

// DefaultConfig mirrors the paper's Table III main-memory parameters.
func DefaultConfig() Config {
	return Config{
		Ranks:        2,
		BanksPerRank: 8,
		RowBytes:     8192,
		ReadNs:       60,
		WriteNs:      150,
		RowHitPct:    60,
		TrackWear:    false,
	}
}

// Device is the NVM timing model. All times are nanoseconds.
type Device struct {
	cfg      Config
	banks    int
	bankFree []uint64 // completion time of each bank's last access
	openRow  []int64  // open row per bank, -1 when closed

	Reads      uint64
	Writes     uint64
	ReadBusyNs uint64
	WriteBusy  uint64
	RowHits    uint64
	RowMisses  uint64

	wear map[uint64]uint32 // line number -> write count

	// onQueue, when set, is called at each access issue with the bank and
	// the number of accesses still pending on that bank (the probe plane's
	// bank-queue occupancy distribution). bankPend tracks the completion
	// times of in-flight accesses per bank and is only maintained while the
	// callback is installed, so the plain timing path pays nothing for it.
	onQueue  func(bank, depth int)
	bankPend [][]uint64
}

// New creates a device from the configuration.
func New(cfg Config) *Device {
	banks := cfg.Ranks * cfg.BanksPerRank
	if banks <= 0 {
		banks = 1
	}
	d := &Device{
		cfg:      cfg,
		banks:    banks,
		bankFree: make([]uint64, banks),
		openRow:  make([]int64, banks),
	}
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	if cfg.TrackWear {
		d.wear = make(map[uint64]uint32)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Banks returns the total bank count (ranks × banks per rank).
func (d *Device) Banks() int { return d.banks }

// SetQueueProbe installs (or, with nil, removes) the per-access bank-queue
// depth callback. Depth is the number of earlier accesses still pending on
// the same bank at the new access's issue time.
func (d *Device) SetQueueProbe(fn func(bank, depth int)) {
	d.onQueue = fn
	if fn != nil && d.bankPend == nil {
		d.bankPend = make([][]uint64, d.banks)
	}
}

// noteQueue records the issue of an access completing at done on a bank:
// retired entries (completion <= now) are pruned, the observed depth is the
// surviving backlog, and the new access joins it.
func (d *Device) noteQueue(bank int, now, done uint64) {
	pend := d.bankPend[bank][:0]
	for _, c := range d.bankPend[bank] {
		if c > now {
			pend = append(pend, c)
		}
	}
	d.onQueue(bank, len(pend))
	d.bankPend[bank] = append(pend, done)
}

func (d *Device) access(now, addr uint64, base uint64) uint64 {
	row := addr / d.cfg.RowBytes
	bank := int(row) % d.banks
	lat := base
	if d.openRow[bank] == int64(row) {
		lat = base * d.cfg.RowHitPct / 100
		d.RowHits++
	} else {
		d.openRow[bank] = int64(row)
		d.RowMisses++
	}
	start := now
	if d.bankFree[bank] > start {
		start = d.bankFree[bank]
	}
	done := start + lat
	d.bankFree[bank] = done
	if d.onQueue != nil {
		d.noteQueue(bank, now, done)
	}
	return done
}

// Read issues a 64 B read at the given byte address and returns its
// completion time.
func (d *Device) Read(now, addr uint64) uint64 {
	d.Reads++
	done := d.access(now, addr, d.cfg.ReadNs)
	d.ReadBusyNs += done - now
	return done
}

// Write issues a 64 B write at the given byte address and returns its
// completion time.
func (d *Device) Write(now, addr uint64) uint64 {
	d.Writes++
	if d.wear != nil {
		d.wear[addr>>6]++
	}
	done := d.access(now, addr, d.cfg.WriteNs)
	d.WriteBusy += done - now
	return done
}

// MaxWear returns the largest per-line write count and the number of
// distinct lines ever written. Lifetime of a wear-limited NVM is governed
// by the hottest line, so a scheme that lowers MaxWear extends lifetime.
func (d *Device) MaxWear() (max uint32, lines int) {
	for _, w := range d.wear {
		if w > max {
			max = w
		}
	}
	return max, len(d.wear)
}
