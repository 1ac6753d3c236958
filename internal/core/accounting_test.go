package core

import (
	"testing"

	"lelantus/internal/ctr"
	"lelantus/internal/ctrcache"
	"lelantus/internal/nvm"
)

// TestStoreCoWMappingChargesRead is the regression test for the supplementary
// CoW table's read-modify-write: the 8-byte entry lives inside a 64 B line,
// so updating it fetches that line from NVM before writing it back. The read
// used to be free — no time, no CoWMetaReads tick, no device traffic.
func TestStoreCoWMappingChargesRead(t *testing.T) {
	e := testEngine(t, LelantusCoW, nil)
	const src, dst = 3, 9
	const now = 5000

	r0, w0 := e.Stats.CoWMetaReads, e.Stats.CoWMetaWrite
	devR0, devW0 := e.Dev.Reads, e.Dev.Writes
	done, err := e.storeCoWMapping(now, dst, src, true)
	if err != nil {
		t.Fatal(err)
	}

	if e.Stats.CoWMetaReads != r0+1 {
		t.Fatalf("CoWMetaReads = %d, want %d (RMW read not charged)", e.Stats.CoWMetaReads, r0+1)
	}
	if e.Stats.CoWMetaWrite != w0+1 {
		t.Fatalf("CoWMetaWrite = %d, want %d", e.Stats.CoWMetaWrite, w0+1)
	}
	if e.Dev.Reads != devR0+1 || e.Dev.Writes != devW0+1 {
		t.Fatalf("device traffic = (%d reads, %d writes), want (+1, +1)",
			e.Dev.Reads-devR0, e.Dev.Writes-devW0)
	}
	// The returned time must serialise read-then-write. A reference device
	// with identical (fresh) state reproduces the expected completion.
	ref := nvm.New(nvm.DefaultConfig())
	addr := e.img.cowMetaAddr(dst)
	if want := ref.Write(ref.Read(now, addr), addr); done != want {
		t.Fatalf("storeCoWMapping done = %d, want read-then-write completion %d", done, want)
	}

	// Erasing an absent mapping stays a free no-op: no phantom traffic.
	r1, d1 := e.Stats.CoWMetaReads, e.Dev.Reads
	if got, err := e.storeCoWMapping(now, dst+1, 0, false); err != nil || got != now {
		t.Fatalf("erase of absent mapping moved time to %d (err %v)", got, err)
	}
	if e.Stats.CoWMetaReads != r1 || e.Dev.Reads != d1 {
		t.Fatal("erase of absent mapping generated traffic")
	}
}

// TestStoreBlockChargesVictimWriteBack is the regression test for the
// counter-store miss path: installing the stored block may evict a dirty
// victim whose write-back must complete before the store is durable. The
// returned timestamp used to ignore that eviction entirely.
func TestStoreBlockChargesVictimWriteBack(t *testing.T) {
	e := testEngine(t, Lelantus, nil)
	// A one-entry write-back cache makes every distinct-page store an
	// eviction.
	e.CtrCache = ctrcache.New(ctr.BlockBytes, 1, ctrcache.WriteBack, 2)

	const pageA, pageB = 5, 6
	writeLine(t, e, pageA, 0, 0x11) // pageA's block now cached and dirty

	const now = 9000
	ctrW0 := e.Stats.CtrWrites
	blk := ctr.Block{Format: e.Scheme().Format()}
	done, err := e.storeBlock(now, pageB, &blk)
	if err != nil {
		t.Fatal(err)
	}

	if e.Stats.CtrWrites != ctrW0+1 {
		t.Fatalf("CtrWrites = %d, want %d (victim write-back missing)", e.Stats.CtrWrites, ctrW0+1)
	}
	if done <= now {
		t.Fatalf("storeBlock done = %d, want > %d (victim write-back time dropped)", done, now)
	}
	// pageA's block must actually have been persisted: re-reading it via a
	// cold cache sees the written value, not stale NVM.
	if got := readLine(t, e, pageA, 0); got[0] != 0x11 {
		t.Fatalf("victim block lost: line reads %#x", got[0])
	}
}

// TestPageCopyCoWMetaAccounting drives the fixed path end-to-end: a
// Lelantus-CoW page_copy performs one supplementary-table update, which
// must show up as (at least) one CoW metadata read and one write.
func TestPageCopyCoWMetaAccounting(t *testing.T) {
	e := testEngine(t, LelantusCoW, nil)
	writeLine(t, e, 3, 0, 0x33)
	r0, w0 := e.Stats.CoWMetaReads, e.Stats.CoWMetaWrite
	if _, err := e.PageCopy(0, 3, 9); err != nil {
		t.Fatal(err)
	}
	if e.Stats.CoWMetaWrite != w0+1 {
		t.Fatalf("CoWMetaWrite = %d, want %d", e.Stats.CoWMetaWrite, w0+1)
	}
	if e.Stats.CoWMetaReads <= r0 {
		t.Fatal("page_copy charged no CoW metadata read")
	}
}
