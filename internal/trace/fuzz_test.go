package trace

import (
	"bytes"
	"testing"
)

// FuzzRead: arbitrary bytes must never panic or allocate absurdly; valid
// inputs must round-trip.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	if err := Write(&buf, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LELT1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same thing.
		var out bytes.Buffer
		if err := Write(&out, s); err != nil {
			t.Fatalf("re-encode of decoded script failed: %v", err)
		}
		s2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(s2.Ops) != len(s.Ops) || s2.Name != s.Name {
			t.Fatal("unstable round trip")
		}
	})
}
