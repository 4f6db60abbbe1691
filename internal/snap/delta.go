package snap

import (
	"fmt"

	"mmt/internal/cursor"
	"mmt/internal/engine"
	"mmt/internal/sim"
	"mmt/internal/store"
	"mmt/internal/tree"
)

// Checkpoint record types inside an mmt-store/v1 data file. A log is a
// base snapshot followed by patches; patches carry absolute state, so
// replaying one twice is harmless.
const (
	RecBase    store.RecordType = 1 // full canonical model blob
	RecMachine store.RecordType = 2 // clock + stats patch for one machine
	RecRoot    store.RecordType = 3 // root-counter patch for one region
	RecNode    store.RecordType = 4 // one serialized tree node
	RecLine    store.RecordType = 5 // one data line (ciphertext + MAC)
)

// Patch is one delta record. Type selects which fields the layout holds.
type Patch struct {
	Type    store.RecordType
	Machine string
	Clock   sim.Time     // RecMachine
	Stats   engine.Stats // RecMachine
	Region  int          // every type but RecMachine
	Counter uint64       // RecRoot: the root counter
	Level   int          // RecNode
	Index   int          // RecNode: node index in its level; RecLine: line number
	Bytes   []byte       // RecNode: serialized node; RecLine: ciphertext
	MAC     uint64       // RecLine
}

func (c *codec) patch(p *Patch) {
	c.String(&p.Machine)
	if p.Type == RecMachine {
		f64(c, &p.Clock)
		c.stats(&p.Stats)
		return
	}
	c.region(&p.Region)
	switch p.Type {
	case RecRoot:
		u64(c, &p.Counter)
	case RecNode:
		u32(c, &p.Level)
		u32(c, &p.Index)
		c.Bytes(&p.Bytes)
	case RecLine:
		u32(c, &p.Index)
		c.Bytes(&p.Bytes)
		u64(c, &p.MAC)
	}
}

// AppendTo appends the patch's record payload to w, so a caller framing
// many patches can push them all through one buffer.
func (p *Patch) AppendTo(w *cursor.Writer) {
	c := codec{Codec: &cursor.Codec{W: w}}
	c.patch(p)
}

// Record frames the patch for the store.
func (p *Patch) Record() store.Record {
	w := cursor.Writer{Buf: make([]byte, 0, 96+len(p.Machine)+len(p.Bytes))} // the largest fixed part is RecMachine's 76 bytes
	p.AppendTo(&w)
	return store.Record{Type: p.Type, Payload: w.Buf}
}

// apply lands a decoded patch on the model. Patches only ever touch
// machines and regions the base snapshot holds, at coordinates inside
// the base's serialized tree and data.
func (p *Patch) apply(m *Model, lay *tree.Layout) error {
	var mm *Machine
	for i := range m.Machines {
		if m.Machines[i].Name == p.Machine {
			mm = &m.Machines[i]
			break
		}
	}
	if mm == nil {
		return fmt.Errorf("%w: delta for unknown machine %q", ErrBadSnapshot, p.Machine)
	}
	if p.Type == RecMachine {
		mm.Clock, mm.Stats = p.Clock, p.Stats
		return nil
	}
	var rm *Region
	for i := range mm.Regions {
		if mm.Regions[i].Index == p.Region {
			rm = &mm.Regions[i]
			break
		}
	}
	if rm == nil {
		return fmt.Errorf("%w: delta for region %d outside the base snapshot of %q", ErrBadSnapshot, p.Region, p.Machine)
	}
	switch p.Type {
	case RecRoot:
		rm.RootCounter = p.Counter
	case RecNode:
		var lv tree.Level // the zero Level holds no node
		if p.Level < len(lay.Level) {
			lv = lay.Level[p.Level]
		}
		off := lv.Offset + p.Index*lv.NodeSize
		if p.Index >= lv.Nodes || len(p.Bytes) != lv.NodeSize || off+len(p.Bytes) > len(rm.Tree) {
			return fmt.Errorf("%w: node patch (%d,%d) of %d bytes outside the serialized tree", ErrBadSnapshot, p.Level, p.Index, len(p.Bytes))
		}
		copy(rm.Tree[off:], p.Bytes)
	case RecLine:
		if p.Index >= len(rm.LineMACs) || len(p.Bytes) != engine.LineSize || (p.Index+1)*engine.LineSize > len(rm.Data) {
			return fmt.Errorf("%w: line patch %d of %d bytes outside the region", ErrBadSnapshot, p.Index, len(p.Bytes))
		}
		copy(rm.Data[p.Index*engine.LineSize:], p.Bytes)
		rm.LineMACs[p.Index] = p.MAC
	}
	return nil
}

// Replay folds a committed record log into the model it encodes: the
// latest base, patched by every delta after it. The layout that
// interprets node patches is the base's own.
func Replay(recs []store.Record) (*Model, error) {
	var (
		m   *Model
		lay tree.Layout
	)
	for i, rec := range recs {
		var err error
		switch {
		case rec.Type == RecBase:
			if m, err = Decode(rec.Payload); err == nil {
				lay, err = tree.ForLevels(m.TreeLevels).Layout()
			}
		case rec.Type < RecBase || rec.Type > RecLine:
			err = fmt.Errorf("%w: unknown record type %d", ErrBadSnapshot, rec.Type)
		case m == nil:
			err = fmt.Errorf("%w: delta before any base snapshot", ErrBadSnapshot)
		default:
			p := Patch{Type: rec.Type}
			c := codec{Codec: cursor.Decoder(rec.Payload, ErrBadSnapshot), regions: m.Regions}
			c.patch(&p)
			if err = c.R.Done(); err == nil {
				err = p.apply(m, &lay)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	if m == nil {
		return nil, fmt.Errorf("%w: log holds no base snapshot", ErrBadSnapshot)
	}
	return m, nil
}
