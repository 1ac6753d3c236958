package experiments

import (
	"testing"

	"lelantus/internal/core"
)

// TestFidelityQuickGridEquivalence is the correctness anchor of the timing
// fidelity: every report of the quick grid, rendered to text, must be
// byte-identical whether the crypto data plane ran or was elided. Under
// -short a crypto-heavy subset stands in for the full grid.
func TestFidelityQuickGridEquivalence(t *testing.T) {
	ids := IDs()
	if testing.Short() {
		ids = []string{"fig9-4KB", "tableI", "fig12"}
	}
	render := func(f core.Fidelity) map[string]string {
		o := DefaultOptions()
		o.Quick = true
		o.MemBytes = 128 << 20
		o.Fidelity = f
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			r, err := ByID(o, id)
			if err != nil {
				t.Fatalf("fidelity %v, %s: %v", f, id, err)
			}
			out[id] = r.String()
		}
		return out
	}
	full := render(core.FidelityFull)
	timing := render(core.FidelityTiming)
	for _, id := range ids {
		if full[id] != timing[id] {
			t.Errorf("%s: report diverges between fidelities\n--- full ---\n%s\n--- timing ---\n%s",
				id, full[id], timing[id])
		}
	}
}
