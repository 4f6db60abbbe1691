package analyzers

import (
	"go/token"
	"testing"
)

// TestDedupeFindings: two analyzers wording the same defect identically
// at one position collapse to a single finding; distinct messages at the
// same position survive.
func TestDedupeFindings(t *testing.T) {
	at := func(analyzer, msg string, line int) Finding {
		return Finding{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: "x.go", Line: line, Column: 4},
			Message:  msg,
		}
	}
	fs := []Finding{
		at("nopanic", "panic in library code", 7),
		at("other", "panic in library code", 7),
		at("nopanic", "panic with a formatted message", 7),
		at("nopanic", "panic in library code", 9),
	}
	sortFindings(fs)
	out := dedupeFindings(fs)
	if len(out) != 3 {
		t.Fatalf("got %d findings after dedupe, want 3: %v", len(out), out)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Pos.Line > out[i].Pos.Line {
			t.Errorf("dedupe broke position order: %v", out)
		}
	}
}
