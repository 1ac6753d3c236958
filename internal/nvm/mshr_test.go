package nvm

import "testing"

// bankCfg builds a geometry where consecutive rows land on consecutive
// banks: RowBytes 64, so address k*64 maps to bank k%banks.
func bankCfg(ranks, banksPerRank int) Config {
	return Config{
		Ranks:        ranks,
		BanksPerRank: banksPerRank,
		RowBytes:     64,
		ReadNs:       60,
		WriteNs:      150,
		RowHitPct:    60,
	}
}

// TestDistinctBanksCompleteInOneEpoch pins the bank-parallelism contract the
// MLP model builds on: N requests issued at the same instant to N distinct
// banks all complete one access latency later, while the same N requests
// aimed at a single bank serialise behind each other.
func TestDistinctBanksCompleteInOneEpoch(t *testing.T) {
	const banks = 8
	d := New(bankCfg(1, banks))
	now := uint64(1000)
	for i := 0; i < banks; i++ {
		addr := uint64(i) * 64 // row i -> bank i
		if done := d.Read(now, addr); done != now+60 {
			t.Fatalf("distinct-bank read %d: done = %d, want %d", i, done, now+60)
		}
	}

	d2 := New(bankCfg(1, banks))
	sameBank := uint64(banks * 64) // row `banks` -> bank 0 again
	first := d2.Read(now, 0)
	if first != now+60 {
		t.Fatalf("first same-bank read: done = %d, want %d", first, now+60)
	}
	second := d2.Read(now, sameBank)
	if second != first+60 {
		t.Fatalf("second same-bank read must queue: done = %d, want %d", second, first+60)
	}
	// Row hit on the open row: the scaled latency still queues behind the
	// bank's busy time.
	third := d2.Read(now, sameBank)
	if third != second+60*60/100 {
		t.Fatalf("row-hit same-bank read: done = %d, want %d", third, second+36)
	}
}

func TestBankOfMatchesAccessCharging(t *testing.T) {
	d := New(bankCfg(2, 4))
	if d.Banks() != 8 {
		t.Fatalf("Banks() = %d, want 8", d.Banks())
	}
	// Rows interleave round-robin over ranks × banks: a second read issued
	// at the same instant queues exactly when it maps to the first's bank.
	addrs := []uint64{0, 64, 512, 4096, 123456}
	for _, a := range addrs {
		for _, b := range addrs[1:] {
			d := New(bankCfg(2, 4))
			d.Read(1000, a)
			queued := d.Read(1000, b) > 1000+60
			if same := a/64%8 == b/64%8; queued != same {
				t.Fatalf("reads of %#x then %#x: queued = %v, want %v", a, b, queued, same)
			}
		}
	}
}

// TestMSHRFileStallsWhenFull pins the register-file contract: with N
// registers, N concurrent legs issue immediately and the N+1st stalls to
// the earliest completion (lowest-index tiebreak keeps this deterministic).
func TestMSHRFileStallsWhenFull(t *testing.T) {
	m := NewMSHRFile(2)
	leg := func(lat uint64) func(uint64) uint64 {
		return func(start uint64) uint64 { return start + lat }
	}
	if done := m.Issue(100, leg(60)); done != 160 {
		t.Fatalf("leg 1 done = %d, want 160", done)
	}
	if done := m.Issue(100, leg(80)); done != 180 {
		t.Fatalf("leg 2 done = %d, want 180", done)
	}
	if got := m.Busy(100); got != 2 {
		t.Fatalf("Busy(100) = %d, want 2", got)
	}
	// Both registers busy at 100: the third leg stalls to the earliest free
	// register (160) and runs from there.
	if done := m.Issue(100, leg(10)); done != 170 {
		t.Fatalf("leg 3 done = %d, want 170 (stalled to 160)", done)
	}
	if m.Stalls != 1 || m.StallNs != 60 {
		t.Fatalf("stalls = %d/%d ns, want 1/60 ns", m.Stalls, m.StallNs)
	}
	if m.Issues != 3 {
		t.Fatalf("issues = %d, want 3", m.Issues)
	}
	if got := m.Busy(175); got != 1 {
		t.Fatalf("Busy(175) = %d, want 1", got)
	}
}

func TestMSHRFileDefaultSize(t *testing.T) {
	if got := NewMSHRFile(0).Size(); got != DefaultMSHRs {
		t.Fatalf("default size = %d, want %d", got, DefaultMSHRs)
	}
	if got := NewMSHRFile(3).Size(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}
}

// TestQueueProbeDepths pins the bank-queue occupancy accounting: the probe
// sees how many earlier accesses are still pending on the bank at each
// issue, and retired accesses are pruned.
func TestQueueProbeDepths(t *testing.T) {
	d := New(bankCfg(1, 4))
	var depths []int
	d.SetQueueProbe(func(bank, depth int) {
		if bank != 0 {
			t.Fatalf("unexpected bank %d", bank)
		}
		depths = append(depths, depth)
	})
	row0 := uint64(0)
	sameBank := uint64(4 * 64)
	d.Read(100, row0)       // pending: 0
	d.Read(100, sameBank)   // pending: 1 (first still in flight)
	d.Read(100, row0)       // pending: 2
	d.Read(10000, sameBank) // all retired by now: 0
	want := []int{0, 1, 2, 0}
	if len(depths) != len(want) {
		t.Fatalf("depths = %v, want %v", depths, want)
	}
	for i := range want {
		if depths[i] != want[i] {
			t.Fatalf("depths = %v, want %v", depths, want)
		}
	}
}
