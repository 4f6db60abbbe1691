package sim

import (
	"math"
	"testing"
)

// within reports whether got is within frac (e.g. 0.10 for 10%) of want.
func within(got, want, frac float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want)/math.Abs(want) <= frac
}

// TestGem5CalibrationTable4 checks the Gem5 profile against the paper's
// Table IV breakdown (10^3 cycles). Tolerance 12%: the paper's own rows
// include measurement noise around the affine fit.
func TestGem5CalibrationTable4(t *testing.T) {
	p := Gem5Profile()
	cases := []struct {
		size                               int
		encrypt, decrypt, memcpy2, remoteW float64 // 10^3 cycles from Table IV
	}{
		{2 << 20, 34612, 32230, 4288, 367},
		{512 << 10, 8445, 8128, 989, 102},
		{128 << 10, 2066, 2085, 211, 36},
		{32 << 10, 530, 580, 46.4, 15.9},
		{8 << 10, 170.2, 204.7, 6.26, 9.47},
		{2 << 10, 77.4, 104.6, 1.31, 7.69},
	}
	for _, c := range cases {
		if got := float64(p.EncryptCost(c.size)) / 1e3; !within(got, c.encrypt, 0.12) {
			t.Errorf("encrypt(%d) = %.1fk cycles, paper %vk", c.size, got, c.encrypt)
		}
		if got := float64(p.DecryptCost(c.size)) / 1e3; !within(got, c.decrypt, 0.12) {
			t.Errorf("decrypt(%d) = %.1fk cycles, paper %vk", c.size, got, c.decrypt)
		}
		if got := 2 * float64(p.MemcpyCost(c.size)) / 1e3; !within(got, c.memcpy2, 0.25) {
			t.Errorf("memcpy*2(%d) = %.1fk cycles, paper %vk", c.size, got, c.memcpy2)
		}
		if got := float64(p.RemoteWriteCost(c.size)) / 1e3; !within(got, c.remoteW, 0.25) {
			t.Errorf("remote_w(%d) = %.1fk cycles, paper %vk", c.size, got, c.remoteW)
		}
	}
}

// TestIntelCalibrationTable4 checks the Intel profile against the paper's
// Table IV Intel columns (ms).
func TestIntelCalibrationTable4(t *testing.T) {
	p := IntelProfile()
	cases := []struct {
		size                               int
		memcpy2, remoteW, encrypt, decrypt float64 // ms
	}{
		{32 << 20, 8.84, 3.01, 16.5, 16.9},
		{64 << 20, 17.1, 6.02, 31.8, 32.7},
		{128 << 20, 34.0, 12.1, 63.6, 66.0},
	}
	for _, c := range cases {
		ms := func(cy Cycles) float64 { return float64(p.ToTime(cy).Milliseconds()) }
		if got := 2 * ms(p.MemcpyCost(c.size)); !within(got, c.memcpy2, 0.10) {
			t.Errorf("memcpy*2(%dM) = %.2fms, paper %v", c.size>>20, got, c.memcpy2)
		}
		if got := ms(p.RemoteWriteCost(c.size)); !within(got, c.remoteW, 0.10) {
			t.Errorf("remote_w(%dM) = %.2fms, paper %v", c.size>>20, got, c.remoteW)
		}
		if got := ms(p.EncryptCost(c.size)); !within(got, c.encrypt, 0.10) {
			t.Errorf("encrypt(%dM) = %.2fms, paper %v", c.size>>20, got, c.encrypt)
		}
		if got := ms(p.DecryptCost(c.size)); !within(got, c.decrypt, 0.10) {
			t.Errorf("decrypt(%dM) = %.2fms, paper %v", c.size>>20, got, c.decrypt)
		}
	}
}

func TestProfileCloneIsolated(t *testing.T) {
	p := Gem5Profile()
	q := p.Clone()
	q.NetLatency = 1e-2
	if p.NetLatency == q.NetLatency {
		t.Fatal("Clone shares NetLatency with original")
	}
}

func TestCostsZeroForNonPositiveSizes(t *testing.T) {
	p := Gem5Profile()
	for _, n := range []int{0, -1, -1024} {
		if p.EncryptCost(n) != 0 || p.DecryptCost(n) != 0 || p.MemcpyCost(n) != 0 || p.RemoteWriteCost(n) != 0 {
			t.Fatalf("cost for n=%d should be 0", n)
		}
	}
}

func TestCostsMonotonicInSize(t *testing.T) {
	p := Gem5Profile()
	sizes := []int{1 << 10, 4 << 10, 64 << 10, 1 << 20, 8 << 20}
	for i := 1; i < len(sizes); i++ {
		if p.EncryptCost(sizes[i]) <= p.EncryptCost(sizes[i-1]) {
			t.Errorf("encrypt cost not increasing at %d", sizes[i])
		}
		if p.MemcpyCost(sizes[i]) <= p.MemcpyCost(sizes[i-1]) {
			t.Errorf("memcpy cost not increasing at %d", sizes[i])
		}
		if p.RemoteWriteCost(sizes[i]) <= p.RemoteWriteCost(sizes[i-1]) {
			t.Errorf("remote write cost not increasing at %d", sizes[i])
		}
	}
}

func TestTableILinks(t *testing.T) {
	links := TableILinks()
	if len(links) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(links))
	}
	want := map[string]string{
		"PCI-E 5.0": "CPU-Device",
		"UCI-E":     "Chiplets",
		"RDMA":      "Remote Memory",
		"NVLINK":    "GPU",
	}
	for _, l := range links {
		if want[l.Method] != l.Connection {
			t.Errorf("link %q connection %q, want %q", l.Method, l.Connection, want[l.Method])
		}
	}
}
