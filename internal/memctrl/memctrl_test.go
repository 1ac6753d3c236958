package memctrl

import (
	"testing"

	"lelantus/internal/core"
	"lelantus/internal/mem"
)

func testCtl(t testing.TB, scheme core.Scheme) *Controller {
	t.Helper()
	cfg := DefaultConfig(scheme)
	cfg.MemBytes = 16 << 20
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestLoadStoreRoundTrip(t *testing.T) {
	c := testCtl(t, core.Baseline)
	data := []byte{1, 2, 3, 4}
	if _, err := c.Store(0, 0x1234, data); err != nil {
		t.Fatal(err)
	}
	line, _, err := c.Load(0, 0x1234)
	if err != nil {
		t.Fatal(err)
	}
	off := uint64(0x1234) & (mem.LineBytes - 1)
	for i, b := range data {
		if line[off+uint64(i)] != b {
			t.Fatalf("byte %d = %#x", i, line[off+uint64(i)])
		}
	}
}

func TestStoreCrossLineRejected(t *testing.T) {
	c := testCtl(t, core.Baseline)
	if _, err := c.Store(0, 62, []byte{1, 2, 3, 4}); err == nil {
		t.Fatal("line-crossing store must be rejected")
	}
}

func TestCacheAbsorbsStores(t *testing.T) {
	c := testCtl(t, core.Baseline)
	w0 := c.Engine.Stats.DataWrites
	for i := 0; i < 100; i++ {
		if _, err := c.Store(0, 0x4000, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Engine.Stats.DataWrites != w0 {
		t.Fatal("repeated stores to one line must coalesce in cache")
	}
	if err := c.Drain(0); err != nil {
		t.Fatal(err)
	}
	if c.Engine.Stats.DataWrites != w0+1 {
		t.Fatalf("drain should write exactly once, wrote %d", c.Engine.Stats.DataWrites-w0)
	}
}

func TestStoreNTBypassesCache(t *testing.T) {
	c := testCtl(t, core.Baseline)
	var line [mem.LineBytes]byte
	line[0] = 9
	w0 := c.Engine.Stats.DataWrites
	if _, err := c.StoreNT(0, 0x8000, &line); err != nil {
		t.Fatal(err)
	}
	if c.Engine.Stats.DataWrites != w0+1 {
		t.Fatal("NT store must reach the engine immediately")
	}
	got, _, err := c.Load(0, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 9 {
		t.Fatalf("NT store lost: %#x", got[0])
	}
}

func TestNTStoreInvalidatesStaleCache(t *testing.T) {
	c := testCtl(t, core.Baseline)
	if _, err := c.Store(0, 0xC000, []byte{1}); err != nil {
		t.Fatal(err)
	}
	var line [mem.LineBytes]byte
	line[0] = 2
	if _, err := c.StoreNT(0, 0xC000, &line); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Load(0, 0xC000)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 2 {
		t.Fatalf("stale cached copy survived NT store: %#x", got[0])
	}
}

func TestFlushPageWritesDirtyLines(t *testing.T) {
	c := testCtl(t, core.Lelantus)
	pfn := uint64(7)
	if _, err := c.Store(0, mem.LineAddr(pfn, 3), []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	w0 := c.Engine.Stats.DataWrites
	if _, err := c.FlushPage(0, pfn); err != nil {
		t.Fatal(err)
	}
	if c.Engine.Stats.DataWrites != w0+1 {
		t.Fatalf("flush wrote %d lines, want 1", c.Engine.Stats.DataWrites-w0)
	}
	// Data still correct through the engine after invalidation.
	got, _, err := c.Load(0, mem.LineAddr(pfn, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Fatalf("flushed line = %#x", got[0])
	}
}

func TestCopyPageFullCorrectness(t *testing.T) {
	for _, nt := range []bool{false, true} {
		c := testCtl(t, core.Baseline)
		const src, dst = 3, 9
		for i := 0; i < mem.LinesPerPage; i++ {
			if _, err := c.Store(0, mem.LineAddr(src, i), []byte{byte(i), byte(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.CopyPageFull(0, src, dst, nt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < mem.LinesPerPage; i++ {
			got, _, err := c.Load(0, mem.LineAddr(dst, i))
			if err != nil {
				t.Fatal(err)
			}
			if got[0] != byte(i) || got[1] != byte(i+1) {
				t.Fatalf("nt=%v line %d: %#x %#x", nt, i, got[0], got[1])
			}
		}
	}
}

func TestZeroPageFull(t *testing.T) {
	c := testCtl(t, core.Baseline)
	const pfn = 5
	if _, err := c.Store(0, mem.LineAddr(pfn, 0), []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ZeroPageFull(0, pfn, false); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Load(0, mem.LineAddr(pfn, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatal("zero fill failed")
	}
}

func TestContextClassification(t *testing.T) {
	c := testCtl(t, core.Baseline)
	// Demand traffic.
	if _, err := c.Store(0, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	// Copy traffic.
	if _, err := c.CopyPageFull(0, 1, 2, true); err != nil {
		t.Fatal(err)
	}
	// Init traffic.
	if _, err := c.ZeroPageFull(0, 3, true); err != nil {
		t.Fatal(err)
	}
	demand, copyT, initT := c.TrafficByContext()
	if demand == 0 || copyT == 0 || initT == 0 {
		t.Fatalf("contexts: demand=%d copy=%d init=%d", demand, copyT, initT)
	}
}

func TestCommandsRouteToEngine(t *testing.T) {
	c := testCtl(t, core.Lelantus)
	if _, err := c.Store(0, mem.LineAddr(2, 0), []byte{7}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FlushPage(0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PageCopy(0, 2, 4); err != nil {
		t.Fatal(err)
	}
	if c.Engine.Stats.PageCopies != 1 {
		t.Fatal("page_copy not routed")
	}
	if _, n, err := c.PagePhyc(0, 2, 4); err != nil || n == 0 {
		t.Fatalf("page_phyc: n=%d err=%v", n, err)
	}
	if _, err := c.PageFree(0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PageInit(0, 4); err != nil {
		t.Fatal(err)
	}
	if c.Engine.Stats.PageFrees != 1 || c.Engine.Stats.PageInits != 1 {
		t.Fatal("free/init not routed")
	}
}

func TestCoWReserveValidation(t *testing.T) {
	cfg := DefaultConfig(core.LelantusCoW)
	cfg.CoWReserveBytes = cfg.CtrCacheBytes
	if _, err := New(cfg); err == nil {
		t.Fatal("CoW reserve >= counter cache must be rejected")
	}
}
