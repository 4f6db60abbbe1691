package trace

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file is the one codec every JSON artefact shares. Each artefact
// is one tagged struct in the shape of its document: HistDoc; EventsDoc,
// whose lines are the ledger's own SecEvents; CausalDoc, whose traces are
// the sink's own CausalTraces; the SeriesView behind seriesDoc; and
// ChromeTrace's three record types. newEncoder writes it compact with
// encoding/json; parseDoc reads it back through DecodeStrict and then the
// document's own Check, which holds the invariants its writer promises.
//
// DecodeStrict has one rule: a document is read only if its writer would
// write it back. It decodes the bytes into the tagged type, lets the type
// re-encode itself, and compares the two as JSON values. So the writer's
// tags and marshalers are the whole definition of the wire form: a key
// the type does not declare is refused, a key the writer always writes
// must be there even when zero, a zero the writer omits must be omitted
// (a legal zero and a dropped key are different documents), and a value
// must be spelled as the writer spells it.
//
// Determinism: struct fields encode in declaration order, the enum-
// indexed arrays (Counts, PhaseCycles, OpSums) in enum order, cycle
// counts in encoding/json's shortest round-trip form and times as Usec's
// fixed three decimals; no writer ranges over a map or reads a clock. So
// identical runs serialize to identical bytes at any worker count. A
// refusal names the first offending key in key order, so the same bad
// document always gets the same message.

// newEncoder writes one compact JSON value per Encode, each ending in a
// newline, with no HTML escaping.
func newEncoder(w io.Writer) *json.Encoder {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc
}

// parseDoc is every artefact's reader: DecodeStrict, then the document's
// own Check.
func parseDoc[D any, P interface {
	*D
	Check() error
}](what string, data []byte) (*D, error) {
	doc := P(new(D))
	if err := DecodeStrict(what, data, doc); err != nil {
		return nil, err
	}
	if err := doc.Check(); err != nil {
		return nil, fmt.Errorf("%s: %w", what, err)
	}
	return doc, nil
}

// DecodeStrict reads a document that encoding/json wrote from the tagged
// value v points to, and only such a document: decoded into v, it must
// re-encode to the same JSON value, null nowhere. what names the format
// in errors.
func DecodeStrict(what string, data []byte, v interface{}) error {
	in, err := decodeValue(data)
	if err == nil {
		canon, _ := json.Marshal(in) // keys sorted: the decode names the first unknown key in key order
		err = unmarshalKnown(canon, v)
	}
	var out interface{}
	if err == nil {
		again, _ := json.Marshal(v) // neither Marshal can fail on a decoded value
		out, err = decodeValue(again)
	}
	if err == nil {
		err = same("document", in, out)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return nil
}

// decodeValue reads data as exactly one JSON value, numbers as written.
func decodeValue(data []byte) (interface{}, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v interface{}
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("data after top-level value")
	}
	return v, nil
}

// unmarshalKnown decodes b into v, refusing a key v's type does not
// declare.
func unmarshalKnown(b []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// same reports the first place, in key order, where the document in
// differs from out, the writer's re-encoding of it, at path.
func same(path string, in, out interface{}) error {
	if in == nil {
		return fmt.Errorf("%s is null", path)
	}
	switch out := out.(type) {
	case map[string]interface{}:
		in, ok := in.(map[string]interface{})
		if !ok {
			break
		}
		keys := maps.Clone(in)
		maps.Copy(keys, out)
		for _, k := range slices.Sorted(maps.Keys(keys)) {
			iv, inOK := in[k]
			ov, outOK := out[k]
			if !inOK {
				return fmt.Errorf("%s: missing key %q", path, k)
			} else if !outOK && iv != nil {
				return fmt.Errorf("%s: zero %q must be omitted", path, k)
			} else if err := same(path+"."+k, iv, ov); err != nil {
				return err
			}
		}
		return nil
	case []interface{}:
		in, ok := in.([]interface{})
		if !ok || len(in) != len(out) {
			break
		}
		for i := range out {
			if err := same(fmt.Sprintf("%s[%d]", path, i), in[i], out[i]); err != nil {
				return err
			}
		}
		return nil
	default:
		if in == out { // json.Number, string or bool: the spelling compares
			return nil
		}
	}
	return fmt.Errorf("%s is %v, which the writer writes %v", path, in, out)
}

// enumType is one of the package's name-tabled enums; n below is always
// its Num* bound.
type enumType interface {
	~uint8
	String() string
}

// Lookup resolves a name the exporters write back to its enum value,
// through the enum's own String table.
func Lookup[E enumType](name string, n E) (E, bool) {
	for e := E(0); e < n; e++ {
		if e.String() == name {
			return e, true
		}
	}
	return 0, false
}

// The enums encode as their names, as values and as the keys of the
// named arrays below; a name outside the table is refused.
func (p Phase) MarshalText() ([]byte, error)     { return []byte(p.String()), nil }
func (c Counter) MarshalText() ([]byte, error)   { return []byte(c.String()), nil }
func (o Op) MarshalText() ([]byte, error)        { return []byte(o.String()), nil }
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }
func (s Severity) MarshalText() ([]byte, error)  { return []byte(s.String()), nil }
func (p *Phase) UnmarshalText(b []byte) error    { return lookupText(p, b, NumPhases, "phase") }
func (o *Op) UnmarshalText(b []byte) error       { return lookupText(o, b, Op(NumOps), "op") }
func (k *EventKind) UnmarshalText(b []byte) error {
	return lookupText(k, b, EventKind(NumEventKinds), "kind")
}
func (s *Severity) UnmarshalText(b []byte) error { return lookupText(s, b, SevError+1, "severity") }

func lookupText[E enumType](e *E, name []byte, n E, what string) error {
	v, ok := Lookup(string(name), n)
	if !ok {
		return fmt.Errorf("unknown %s %q", what, name)
	}
	*e = v
	return nil
}

// Counts, PhaseCycles and OpSums are arrays indexed by Counter, Phase and
// Op. Each encodes as an object of its non-zero entries under the enum's
// names, in enum order, and reads back refusing a name outside the table
// (DecodeStrict refuses an explicit zero: the writer omits it).
type (
	Counts      [NumCounters]uint64
	PhaseCycles [NumPhases]sim.Cycles
	OpSums      [NumOps]OpSum
)

// OpSum is an operation's sample count and cycle sum.
type OpSum struct {
	Count uint64     `json:"count"`
	Sum   sim.Cycles `json:"sum_cycles"`
}

func (a *Counts) UnmarshalJSON(b []byte) error {
	return unmarshalNamed(b, a[:], NumCounters, "counter")
}
func (a *PhaseCycles) UnmarshalJSON(b []byte) error {
	return unmarshalNamed(b, a[:], NumPhases, "phase")
}
func (a *OpSums) UnmarshalJSON(b []byte) error     { return unmarshalNamed(b, a[:], Op(NumOps), "op") }
func (a Counts) MarshalJSON() ([]byte, error)      { return marshalNamed(a[:], NumCounters) }
func (a PhaseCycles) MarshalJSON() ([]byte, error) { return marshalNamed(a[:], NumPhases) }
func (a OpSums) MarshalJSON() ([]byte, error)      { return marshalNamed(a[:], Op(NumOps)) }

// unmarshalNamed reads a named array's entries into vals by name, in key
// order: a name outside the enum's table is refused, and a decode error
// names its entry (the outer decoder prefixes the path to the array).
func unmarshalNamed[E enumType, T any](b []byte, vals []T, n E, what string) error {
	var named map[string]json.RawMessage
	if err := json.Unmarshal(b, &named); err != nil {
		return err
	}
	for _, name := range slices.Sorted(maps.Keys(named)) {
		var e E
		if err := lookupText(&e, []byte(name), n, what); err != nil {
			return err
		}
		if err := unmarshalKnown(named[name], &vals[e]); err != nil {
			if te, ok := err.(*json.UnmarshalTypeError); ok {
				te.Field = strings.TrimSuffix(name+"."+te.Field, ".")
			}
			return err
		}
	}
	return nil
}

func marshalNamed[E interface {
	enumType
	encoding.TextMarshaler
}, T comparable](vals []T, n E) ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	var zero T
	for e := E(0); e < n; e++ {
		if vals[e] == zero {
			continue
		}
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		v, err := json.Marshal(vals[e])
		if err != nil {
			return nil, err
		}
		k, _ := e.MarshalText() // a name table's, which cannot fail
		b.WriteString(strconv.Quote(string(k)) + ":")
		b.Write(v)
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// Usec is a simulated time or duration in microseconds, as every
// document carries it: written with exactly three decimals, since
// nanosecond resolution keeps distinct cycle stamps distinct at simulated
// GHz clocks and the fixed format keeps identical runs' bytes identical.
// A live view holds the full-precision value (scaling by 1e6 keeps the
// order of sim.Time stamps), a decoded one the value as written.
type Usec float64

// Micros is t in microseconds.
func Micros(t sim.Time) Usec { return Usec(t.Microseconds()) }

func (u Usec) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat(nil, float64(u), 'f', 3, 64), nil
}

// MarshalText writes the ID in String's "proc#seq" form, which
// UnmarshalText reads back.
func (id TraceID) MarshalText() ([]byte, error) { return []byte(id.String()), nil }

func (id *TraceID) UnmarshalText(b []byte) error {
	s := string(b)
	i := strings.LastIndexByte(s, '#')
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if i < 1 || err != nil {
		return fmt.Errorf("trace %q is not proc#seq", s)
	}
	*id = TraceID{Proc: s[:i], Seq: seq}
	return nil
}
