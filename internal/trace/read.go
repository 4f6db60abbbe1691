package trace

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"reflect"
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
// encoding/json; parseDoc reads
// it back through DecodeStrict, which takes only what the encoder emits,
// and then the document's own Check, which holds the invariants its
// writer promises. A reader therefore takes only what its writer emits:
// an unknown key is an error, and so is the absence of a key the writer
// always writes (a legal zero and a dropped key are different documents).
//
// Determinism: struct fields encode in declaration order, the enum-
// indexed arrays (Counts, PhaseCycles, OpSums) in enum order, cycle
// counts in encoding/json's shortest round-trip form and times as Usec's
// fixed three decimals; no writer ranges over a map or reads a clock. So
// identical runs serialize to identical bytes at any worker count.

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
// value v points to: no key the type does not declare, and every key the
// encoder always emits (a tagged field without omitempty or omitzero)
// present — required-ness is read off the writer's own tags, not
// restated; an optional key given its zero value is refused too. what
// names the format in errors.
func DecodeStrict(what string, data []byte, v interface{}) error {
	d := document{schema: what}
	d.read("document", data, reflect.ValueOf(v).Elem())
	return d.err
}

// document carries the first error of one decode, shared by all its
// objects (the cursor.Reader convention: read on, check once).
type document struct {
	schema string
	err    error
}

func (d *document) failf(format string, args ...interface{}) {
	if d.err == nil {
		d.err = fmt.Errorf(d.schema+": "+format, args...)
	}
}

// object is one JSON object being consumed key by key: get removes what
// it reads, end fails on whatever is left.
type object struct {
	d    *document
	path string
	keys map[string]json.RawMessage
}

func (d *document) object(path string, raw []byte) object {
	o := object{d: d, path: path}
	if err := json.Unmarshal(raw, &o.keys); err != nil {
		d.failf("%s: not a JSON object: %v", path, err)
	}
	return o
}

// get consumes key, decoding it into v; a missing or null key fails.
func (o object) get(key string, v interface{}) {
	raw, ok := o.keys[key]
	delete(o.keys, key)
	switch {
	case !ok:
		o.d.failf("%s: missing key %q", o.path, key)
	case string(raw) == "null":
		o.d.failf("%s: %q is null", o.path, key)
	default:
		if err := json.Unmarshal(raw, v); err != nil {
			o.d.failf("%s: bad %q: %v", o.path, key, err)
		}
	}
}

func (o object) has(key string) bool { _, ok := o.keys[key]; return ok }

func (o object) end() {
	if left := slices.Sorted(maps.Keys(o.keys)); len(left) > 0 {
		o.d.failf("%s: unknown key %q", o.path, left[0])
	}
}

var (
	jsonUnmarshaler = reflect.TypeFor[json.Unmarshaler]()
	textUnmarshaler = reflect.TypeFor[encoding.TextUnmarshaler]()
	namedArrayType  = reflect.TypeFor[namedArray]()
)

// walked reports whether read takes a value of type t apart itself:
// structs, slices and named arrays that do not decode themselves, and
// pointers to them. Everything else is one encoding/json decode.
func walked(t reflect.Type) bool {
	switch p := reflect.PointerTo(t); {
	case p.Implements(namedArrayType):
		return true
	case p.Implements(jsonUnmarshaler) || p.Implements(textUnmarshaler):
		return false
	case t.Kind() == reflect.Pointer || t.Kind() == reflect.Slice:
		return walked(t.Elem())
	}
	return t.Kind() == reflect.Struct
}

// read decodes raw into the walked value v: a struct key by tagged key, a
// slice element by element, a named array entry by named entry.
func (d *document) read(path string, raw []byte, v reflect.Value) {
	switch t := v.Type(); {
	case t.Kind() == reflect.Pointer:
		v.Set(reflect.New(t.Elem()))
		d.read(path, raw, v.Elem())
	case t.Kind() == reflect.Slice:
		var elems []json.RawMessage
		if err := json.Unmarshal(raw, &elems); err != nil {
			d.failf("%s: not a JSON array: %v", path, err)
		}
		v.Set(reflect.MakeSlice(t, len(elems), len(elems)))
		for i, e := range elems {
			d.read(fmt.Sprintf("%s[%d]", path, i), e, v.Index(i))
		}
	case reflect.PointerTo(t).Implements(namedArrayType):
		o := d.object(path, raw)
		index := v.Addr().Interface().(namedArray).index
		for _, key := range slices.Sorted(maps.Keys(o.keys)) {
			i, ok := index(key)
			if !ok {
				d.failf("%s: unknown key %q", path, key)
				return
			}
			if o.field(key, v.Index(i)); v.Index(i).IsZero() {
				d.failf("%s: zero %q must be omitted", path, key)
			}
		}
	default:
		o := d.object(path, raw)
		o.fill(v)
		o.end()
	}
}

// fill reads the struct v's fields from o; an embedded struct's keys
// sit in o itself. An omitempty or omitzero key may be absent, but given
// its zero value (an empty list included) it is refused: the encoder
// never writes one.
func (o object) fill(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		key, opts, _ := strings.Cut(sf.Tag.Get("json"), ",")
		switch {
		case sf.Anonymous && key == "":
			o.fill(f)
		case opts != "omitempty" && opts != "omitzero":
			o.field(key, f)
		case o.has(key):
			if o.field(key, f); f.IsZero() || f.Kind() == reflect.Slice && f.Len() == 0 {
				o.d.failf("%s: zero %q must be omitted", o.path, key)
			}
		}
	}
}

// field reads o's key into f: a walked type through read, anything else
// through encoding/json.
func (o object) field(key string, f reflect.Value) {
	if !walked(f.Type()) {
		o.get(key, f.Addr().Interface())
		return
	}
	var raw json.RawMessage
	if o.get(key, &raw); raw != nil {
		o.d.read(o.path+"."+key, raw, f)
	}
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
func (c *Counter) UnmarshalText(b []byte) error  { return lookupText(c, b, NumCounters, "counter") }
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
// names, in enum order, and DecodeStrict reads it back refusing a name
// outside the table and an explicit zero.
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

// namedArray is an enum-indexed array: index resolves an entry's name.
type namedArray interface{ index(name string) (int, bool) }

func (*Counts) index(name string) (int, bool)      { return indexOf[Counter](name) }
func (*PhaseCycles) index(name string) (int, bool) { return indexOf[Phase](name) }
func (*OpSums) index(name string) (int, bool)      { return indexOf[Op](name) }
func (a Counts) MarshalJSON() ([]byte, error)      { return marshalNamed(a[:], NumCounters) }
func (a PhaseCycles) MarshalJSON() ([]byte, error) { return marshalNamed(a[:], NumPhases) }
func (a OpSums) MarshalJSON() ([]byte, error)      { return marshalNamed(a[:], Op(NumOps)) }

func indexOf[E enumType, P interface {
	*E
	encoding.TextUnmarshaler
}](name string) (int, bool) {
	var e E
	err := P(&e).UnmarshalText([]byte(name))
	return int(e), err == nil
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
// order of sim.Time stamps), a decoded one the value as written, so a
// decoded Usec re-encodes to itself.
type Usec float64

// Micros is t in microseconds.
func Micros(t sim.Time) Usec { return Usec(t.Microseconds()) }

func (u Usec) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat(nil, float64(u), 'f', 3, 64), nil
}

func (u *Usec) UnmarshalJSON(b []byte) error {
	var us float64
	err := json.Unmarshal(b, &us)
	us, _ = strconv.ParseFloat(strconv.FormatFloat(us, 'f', 3, 64), 64)
	*u = Usec(us)
	return err
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
