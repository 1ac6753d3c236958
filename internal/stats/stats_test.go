package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.Add("x", 1.5)
	tb.Add("y", 2)
	raw, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title":"T"`, `"header":["a","b"]`, `["x","1.50"]`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("JSON missing %s:\n%s", want, raw)
		}
	}
	var back Table
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != tb.String() {
		t.Fatalf("round trip changed the table:\n%s\nvs\n%s", back.String(), tb.String())
	}
}

func TestEmptyTableJSON(t *testing.T) {
	raw, err := json.Marshal(NewTable("E", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"rows":[]`) {
		t.Fatalf("empty table must encode rows as [], got %s", raw)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.Add("alpha", 3.14159)
	tb.Add("b", 42)
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "3.14") {
		t.Fatal("float not formatted")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// Columns aligned: header and row share the column-2 start offset.
	h := lines[1]
	r := lines[3]
	if strings.Index(h, "value") != strings.Index(r, "3.14") {
		t.Fatalf("misaligned columns:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("MD", "a", "b")
	tb.Add("x", 1)
	out := tb.Markdown()
	if !strings.Contains(out, "**MD**") || !strings.Contains(out, "| a | b |") ||
		!strings.Contains(out, "| --- | --- |") || !strings.Contains(out, "| x | 1 |") {
		t.Fatalf("markdown rendering wrong:\n%s", out)
	}
}
