package bench

import "testing"

func TestTable4Gem5ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("2MB functional transfers in -short mode")
	}
	rows, err := Table4Gem5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Headline: ~169x at 2M. Allow a generous band; the shape is the claim.
	if r := rows[0]; r.Speedup < 100 || r.Speedup > 260 {
		t.Errorf("2M speedup %.1fx outside [100,260] (paper 169x)", r.Speedup)
	}
	// Crossover: secure channel must win below 8K.
	last := rows[len(rows)-1] // 2K
	if last.Speedup >= 1 {
		t.Errorf("2K speedup %.2fx, want < 1 (paper 0.45x)", last.Speedup)
	}
	// Speedup decreases monotonically as size shrinks.
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup >= rows[i-1].Speedup {
			t.Errorf("speedup not monotone at %s: %.2f >= %.2f",
				fmtSize(rows[i].Size), rows[i].Speedup, rows[i-1].Speedup)
		}
	}
	// MMT cost constant for sizes <= one closure (all six sizes).
	for _, r := range rows[1:] {
		if r.MMT != rows[0].MMT {
			t.Errorf("MMT cost varies below closure size: %v vs %v", r.MMT, rows[0].MMT)
		}
	}
	// Encrypt+decrypt dominate the secure channel at 2M (paper: ~45% each).
	r := rows[0]
	if frac := float64(r.Encrypt+r.Decrypt) / float64(r.SecureChannel); frac < 0.8 {
		t.Errorf("crypto fraction at 2M = %.2f, want > 0.8", frac)
	}
}

func TestTable4IntelShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("128MB functional transfers in -short mode")
	}
	if raceEnabled {
		t.Skip("32-128MB transfers are ~10x slower under the race detector; " +
			"the Gem5 half exercises the same code path at smaller sizes")
	}
	rows, err := Table4Intel()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper: ~13x at every size with AES-NI.
		if r.Speedup < 8 || r.Speedup > 20 {
			t.Errorf("%s speedup %.1fx outside [8,20] (paper %.1fx)", fmtSize(r.Size), r.Speedup, r.PaperSpeedup)
		}
	}
}
