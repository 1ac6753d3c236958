package core

import (
	"testing"

	"lelantus/internal/ctr"
	"lelantus/internal/mem"
)

func nonSecureEngine(t testing.TB, scheme Scheme) *Engine {
	return testEngine(t, scheme, func(c *Config) { c.NonSecure = true })
}

func TestNonSecureRoundTrip(t *testing.T) {
	for _, s := range Schemes() {
		t.Run(s.String(), func(t *testing.T) {
			e := nonSecureEngine(t, s)
			writeLine(t, e, 3, 5, 0xAB)
			wantByte(t, readLine(t, e, 3, 5), 0xAB, "written line")
			writeLine(t, e, 3, 5, 0xCD)
			wantByte(t, readLine(t, e, 3, 5), 0xCD, "rewritten line")
		})
	}
}

func TestNonSecurePlaintextAtRest(t *testing.T) {
	// Section III-G: without encryption the data region holds plaintext;
	// only the counter-like blocks remain.
	e := nonSecureEngine(t, Lelantus)
	writeLine(t, e, 4, 0, 0x77)
	var raw [mem.LineBytes]byte
	e.img.Phys.ReadLine(mem.LineAddr(4, 0), &raw)
	if raw[0] != 0x77 {
		t.Fatal("non-secure mode must store plaintext")
	}
}

func TestNonSecureNoPads(t *testing.T) {
	e := nonSecureEngine(t, Lelantus)
	writeLine(t, e, 5, 0, 1)
	readLine(t, e, 5, 0)
	if e.Enc.Pads != 0 {
		t.Fatalf("non-secure mode generated %d pads", e.Enc.Pads)
	}
	if e.img.Tree.Updates != 0 {
		t.Fatalf("non-secure mode updated the Merkle tree %d times", e.img.Tree.Updates)
	}
}

func TestNonSecureNoOverflow(t *testing.T) {
	// Minors saturate: hammering one line must never trigger an overflow
	// re-encryption (there is nothing to re-encrypt).
	e := nonSecureEngine(t, Lelantus)
	for n := 0; n < 3*ctr.MinorMaxClassic; n++ {
		writeLine(t, e, 6, 0, byte(n))
	}
	if e.Stats.Overflows != 0 {
		t.Fatalf("Overflows = %d in non-secure mode", e.Stats.Overflows)
	}
	wantByte(t, readLine(t, e, 6, 0), byte((3*ctr.MinorMaxClassic-1)%256), "final value")
}

func TestNonSecureCoWStillFineGrained(t *testing.T) {
	// The whole point of III-G: the CoW tracking works without encryption.
	for _, s := range []Scheme{Lelantus, LelantusCoW} {
		t.Run(s.String(), func(t *testing.T) {
			e := nonSecureEngine(t, s)
			const src, dst = 10, 11
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, byte(i))
			}
			if _, err := e.PageCopy(0, src, dst); err != nil {
				t.Fatal(err)
			}
			w0 := e.Stats.DataWrites
			got := readLine(t, e, dst, 9)
			if got[0] != 9 {
				t.Fatalf("redirected read = %#x", got[0])
			}
			if e.Stats.DataWrites != w0 {
				t.Fatal("read materialised a line")
			}
			writeLine(t, e, dst, 9, 0xEE)
			wantByte(t, readLine(t, e, dst, 9), 0xEE, "materialised")
			wantByte(t, readLine(t, e, src, 9), 9, "source intact")
			if _, _, err := e.PagePhyc(0, src, dst); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ctr.LinesPerPage; i++ {
				writeLine(t, e, src, i, 0)
			}
			got = readLine(t, e, dst, 3)
			if got[0] != 3 {
				t.Fatalf("post-phyc line = %#x", got[0])
			}
		})
	}
}

func TestNonSecureFasterThanSecure(t *testing.T) {
	// "Lelantus only incurs the overheads of retrieving and updating the
	// counters": the non-secure write path must be no slower than the
	// secure one (no AES, no verification charges).
	sec := testEngine(t, Lelantus, nil)
	non := nonSecureEngine(t, Lelantus)
	var plain [mem.LineBytes]byte
	plain[0] = 1
	tSec, err := sec.WriteLine(0, mem.LineAddr(2, 0), &plain)
	if err != nil {
		t.Fatal(err)
	}
	tNon, err := non.WriteLine(0, mem.LineAddr(2, 0), &plain)
	if err != nil {
		t.Fatal(err)
	}
	if tNon > tSec {
		t.Fatalf("non-secure write (%d ns) slower than secure (%d ns)", tNon, tSec)
	}
}
