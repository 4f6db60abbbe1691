package sim

import (
	"fmt"
	"math"
	"sort"
)

// Curve is a piecewise log-linear cost curve mapping a transfer size in
// bytes to a per-byte cost. It is used where the paper's own breakdown
// shows cache effects that an affine model cannot capture (e.g. memcpy in
// Table IV: 0.32 cycles/B for a 2 KB cache-resident copy rising to 1.02
// cycles/B for a 2 MB copy).
//
// Between anchor points the per-byte cost is interpolated linearly in
// log2(size); outside the anchored range it is clamped to the nearest
// anchor.
type Curve struct {
	points []CurvePoint
}

// CurvePoint anchors a per-byte cost at a given size.
type CurvePoint struct {
	Size    int     // bytes
	PerByte float64 // cost units per byte at that size
}

// NewCurve builds a curve from anchor points. Points are sorted by size;
// duplicate sizes and non-positive sizes panic, since curves are
// constructed from static calibration tables.
func NewCurve(points ...CurvePoint) *Curve {
	if len(points) == 0 {
		panic("sim: NewCurve requires at least one point") // calibration tables are static package data; an empty curve is a programming error
	}
	ps := make([]CurvePoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].Size < ps[j].Size })
	for i, p := range ps {
		if p.Size <= 0 {
			panic(fmt.Sprintf("sim: curve point %d has non-positive size %d", i, p.Size)) // static calibration table validation at construction time
		}
		if i > 0 && ps[i-1].Size == p.Size {
			panic(fmt.Sprintf("sim: duplicate curve point at size %d", p.Size)) // static calibration table validation at construction time
		}
	}
	return &Curve{points: ps}
}

// Points returns a copy of the curve's anchor points in size order, for
// serializing a profile into a snapshot.
func (c *Curve) Points() []CurvePoint {
	out := make([]CurvePoint, len(c.points))
	copy(out, c.points)
	return out
}

// PerByte reports the interpolated per-byte cost for a transfer of n bytes.
func (c *Curve) PerByte(n int) float64 {
	ps := c.points
	if n <= ps[0].Size {
		return ps[0].PerByte
	}
	last := ps[len(ps)-1]
	if n >= last.Size {
		return last.PerByte
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].Size >= n })
	lo, hi := ps[i-1], ps[i]
	f := (math.Log2(float64(n)) - math.Log2(float64(lo.Size))) /
		(math.Log2(float64(hi.Size)) - math.Log2(float64(lo.Size)))
	return lo.PerByte + f*(hi.PerByte-lo.PerByte)
}

// Cost reports the total cost for a transfer of n bytes.
func (c *Curve) Cost(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) * c.PerByte(n)
}
