package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func testMem() *Memory {
	return New(Config{Size: 1 << 20, RegionSize: 64 << 10, MetaPerRegion: 8 << 10})
}

func TestConfigValidate(t *testing.T) {
	good := Config{Size: 1 << 20, RegionSize: 64 << 10, MetaPerRegion: 4 << 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Config{
		{Size: 0, RegionSize: 64 << 10},
		{Size: 1 << 20, RegionSize: 0},
		{Size: 1 << 20, RegionSize: 100}, // not line multiple
		{Size: 1 << 20, RegionSize: 64 << 10, MetaPerRegion: -64},
		{Size: 1 << 20, RegionSize: 64 << 10, MetaPerRegion: 100},
		{Size: 1<<20 + 64, RegionSize: 64 << 10}, // not region multiple
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	m := testMem()
	line := bytes.Repeat([]byte{0xAB}, LineSize)
	m.Write(128, line)
	if !bytes.Equal(m.LineView(128), line) {
		t.Fatal("line round trip failed")
	}
	// Adjacent lines untouched.
	if !bytes.Equal(m.LineView(64), make([]byte, LineSize)) {
		t.Fatal("adjacent line dirtied")
	}
}

func TestUnalignedLinePanics(t *testing.T) {
	m := testMem()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unaligned line read")
		}
	}()
	m.LineView(3)
}

func TestOutOfRangePanics(t *testing.T) {
	m := testMem()
	for name, f := range map[string]func(){
		"read past end":  func() { m.Read(Addr(m.Size()-4), 8) },
		"write past end": func() { m.Write(Addr(m.Size()), []byte{1}) },
		"negative span":  func() { m.Read(0, -1) },
		"bad region":     func() { m.MetaRegion(9999) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRegionMapping(t *testing.T) {
	m := testMem()
	if m.Regions() != 16 {
		t.Fatalf("Regions() = %d, want 16", m.Regions())
	}
	if m.RegionBase(3) != Addr(3*64<<10) {
		t.Fatal("RegionBase wrong")
	}
}

func TestMetaRegionIsolatedPerRegion(t *testing.T) {
	m := testMem()
	m0 := m.MetaRegion(0)
	m1 := m.MetaRegion(1)
	for i := range m0 {
		m0[i] = 0xFF
	}
	for _, b := range m1 {
		if b != 0 {
			t.Fatal("writing region 0 meta dirtied region 1 meta")
		}
	}
	if len(m0) != 8<<10 {
		t.Fatalf("meta region size %d, want %d", len(m0), 8<<10)
	}
}

func TestRegionDataAliases(t *testing.T) {
	m := testMem()
	d := m.RegionData(1)
	d[0] = 0x42
	if m.Read(m.RegionBase(1), 1)[0] != 0x42 {
		t.Fatal("RegionData does not alias backing store")
	}
	if len(d) != 64<<10 {
		t.Fatalf("RegionData size %d", len(d))
	}
}

func TestReadReturnsCopy(t *testing.T) {
	m := testMem()
	m.Write(0, []byte{1, 2, 3})
	got := m.Read(0, 3)
	got[0] = 99
	if m.Read(0, 1)[0] != 1 {
		t.Fatal("Read did not return a copy")
	}
}

func TestSpanRoundTripProperty(t *testing.T) {
	m := testMem()
	f := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := Addr(off)
		if int(a)+len(data) > m.Size() {
			return true
		}
		m.Write(a, data)
		return bytes.Equal(m.Read(a, len(data)), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
