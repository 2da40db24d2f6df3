package report

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-long-name", "22")
	tb.AddRow("short") // padded
	out := tb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d, want title+header+sep+3 rows", len(lines))
	}
	// Columns align: every row has the same prefix width up to "value".
	hdrIdx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < hdrIdx {
			t.Fatalf("row too short for alignment: %q", l)
		}
	}
}

func TestBar(t *testing.T) {
	if Bar(5, 10, 10) != "#####" {
		t.Fatalf("bar = %q", Bar(5, 10, 10))
	}
	if Bar(20, 10, 10) != "##########" {
		t.Fatal("bar must clamp high")
	}
	if Bar(-1, 10, 10) != "" {
		t.Fatal("bar must clamp low")
	}
	if Bar(1, 0, 10) != "" || Bar(1, 10, 0) != "" {
		t.Fatal("degenerate bars must be empty")
	}
}
