package nvm

import "testing"

func testConfig() Config {
	c := DefaultConfig()
	c.TrackWear = true
	return c
}

func TestReadWriteLatency(t *testing.T) {
	d := New(testConfig())
	done := d.Read(0, 0)
	if done != 60 {
		t.Fatalf("first read completes at %d, want 60", done)
	}
	// Same row: open-row hit at 60% of the base latency.
	done2 := d.Read(done, 64)
	if done2 != done+36 {
		t.Fatalf("row-hit read completes at %d, want %d", done2, done+36)
	}
	dw := New(testConfig())
	wdone := dw.Write(0, 0)
	if wdone != 150 {
		t.Fatalf("first write completes at %d, want 150", wdone)
	}
}

func TestBankBusySerialises(t *testing.T) {
	d := New(testConfig())
	// Two accesses to the same bank issued at the same instant must queue.
	t1 := d.Read(0, 0)
	rowBytes := d.Config().RowBytes
	banks := uint64(d.Config().Ranks * d.Config().BanksPerRank)
	sameBankAddr := rowBytes * banks // next row that maps to bank 0
	t2 := d.Read(0, sameBankAddr)
	if t2 <= t1 {
		t.Fatalf("same-bank access did not queue: t1=%d t2=%d", t1, t2)
	}
}

func TestBankParallelism(t *testing.T) {
	d := New(testConfig())
	t1 := d.Read(0, 0)
	t2 := d.Read(0, d.Config().RowBytes) // different row -> different bank
	if t2 != t1 {
		t.Fatalf("different banks should run in parallel: t1=%d t2=%d", t1, t2)
	}
}

func TestRowBufferStats(t *testing.T) {
	d := New(testConfig())
	d.Read(0, 0)
	d.Read(0, 64)
	d.Read(0, 128)
	if d.RowHits != 2 || d.RowMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", d.RowHits, d.RowMisses)
	}
}

func TestTrafficCounters(t *testing.T) {
	d := New(testConfig())
	d.Read(0, 0)
	d.Write(0, 64)
	d.Write(0, 64)
	if d.Reads != 1 || d.Writes != 2 {
		t.Fatalf("reads=%d writes=%d", d.Reads, d.Writes)
	}
}

func TestWearTracking(t *testing.T) {
	d := New(testConfig())
	for i := 0; i < 5; i++ {
		d.Write(0, 4096)
	}
	d.Write(0, 8192)
	if w := d.wear[4096>>6]; w != 5 {
		t.Fatalf("wear = %d, want 5", w)
	}
	max, lines := d.MaxWear()
	if max != 5 || lines != 2 {
		t.Fatalf("max=%d lines=%d, want 5/2", max, lines)
	}
}

func TestWearDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackWear = false
	d := New(cfg)
	d.Write(0, 0)
	if max, lines := d.MaxWear(); max != 0 || lines != 0 {
		t.Fatalf("wear tracking disabled but MaxWear = %d over %d lines", max, lines)
	}
}

func TestDegenerateGeometry(t *testing.T) {
	d := New(Config{ReadNs: 10, WriteNs: 20, RowBytes: 64, RowHitPct: 100})
	if done := d.Read(0, 0); done != 10 {
		t.Fatalf("single-bank fallback read = %d", done)
	}
}
