package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"mmt/internal/sim"
)

// This file is the reading half of the export contract: every artefact
// has one writer and one reader in the same package, and a reader takes
// only what its writer emits — an unknown key is an error, and so is the
// absence of a key the writer always writes (a legal zero and a dropped
// key are different documents).

// document carries the first error of one parse, shared by all its
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

// object is one JSON object being consumed key by key: get and opt
// remove what they read, end fails on whatever is left.
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

// top opens the outermost object and consumes its "schema" key.
func (d *document) top(raw []byte) object {
	o := d.object("document", raw)
	var got string
	if o.get("schema", &got); got != d.schema {
		d.failf("schema is %q", got)
	}
	return o
}

// opt decodes key into v when the object has it and reports whether it
// did; get is opt for a key the writer always emits.
func (o object) opt(key string, v interface{}) bool {
	raw, ok := o.keys[key]
	if !ok {
		return false
	}
	delete(o.keys, key)
	if string(raw) == "null" {
		o.d.failf("%s: %q is null", o.path, key)
	} else if err := json.Unmarshal(raw, v); err != nil {
		o.d.failf("%s: bad %q: %v", o.path, key, err)
	}
	return true
}

// has reports whether a key the writer emits conditionally is there.
func (o object) has(key string) bool { _, ok := o.keys[key]; return ok }

func (o object) get(key string, v interface{}) {
	if !o.opt(key, v) {
		o.d.failf("%s: missing key %q", o.path, key)
	}
}

// array splits a JSON array of objects; child reads a required nested
// object and list a required nested array of them.
func (d *document) array(path string, raw []byte) []object {
	var elems []json.RawMessage
	if err := json.Unmarshal(raw, &elems); err != nil {
		d.failf("%s: not a JSON array: %v", path, err)
	}
	objs := make([]object, len(elems))
	for i, raw := range elems {
		objs[i] = d.object(fmt.Sprintf("%s[%d]", path, i), raw)
	}
	return objs
}

func (o object) child(key string) object {
	var raw json.RawMessage
	o.get(key, &raw)
	return o.d.object(o.path+"."+key, raw)
}

func (o object) list(key string) []object {
	var raw json.RawMessage
	o.get(key, &raw)
	return o.d.array(o.path+"."+key, raw)
}

func (o object) end() {
	var left []string
	for key := range o.keys {
		left = append(left, key)
	}
	if sort.Strings(left); len(left) > 0 {
		o.d.failf("%s: unknown key %q", o.path, left[0])
	}
}

// usec reads a required microsecond stamp as simulated time.
func (o object) usec(key string) sim.Time {
	var us float64
	o.get(key, &us)
	return sim.Time(us / 1e6)
}

// traceID reads a required key in TraceID.String's "proc#seq" form.
func (o object) traceID(key string) TraceID {
	var s string
	o.get(key, &s)
	i := strings.LastIndexByte(s, '#')
	seq, err := strconv.ParseUint(s[i+1:], 10, 64)
	if i < 1 || err != nil {
		o.d.failf("%s: %s %q is not proc#seq", o.path, key, s)
		return TraceID{}
	}
	return TraceID{Proc: s[:i], Seq: seq}
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

// enum reads a required key that must hold one of E's names.
func enum[E enumType](o object, key string, n E) E {
	var name string
	o.get(key, &name)
	e, ok := Lookup(name, n)
	if !ok {
		o.d.failf("%s: unknown %s %q", o.path, key, name)
	}
	return e
}

// named reads {"name": value, ...} into the array E indexes. Writers
// list only non-zero entries, so an explicit zero is as foreign as an
// unknown name.
func named[E enumType, T comparable](o object, key string, n E, dst []T) {
	c := o.child(key)
	var zero T
	for e := E(0); e < n; e++ {
		if c.opt(e.String(), &dst[e]) && dst[e] == zero {
			c.d.failf("%s: zero %q must be omitted", c.path, e)
		}
	}
	c.end()
}

// DecodeStrict reads a document that encoding/json wrote from the tagged
// struct v points to, through the same strict reader: no key the type
// does not declare, and every key the encoder always emits (a tagged
// field without omitempty) present — required-ness is read off the
// writer's own tags, not restated. what names the format in errors.
func DecodeStrict(what string, data []byte, v interface{}) error {
	d := document{schema: what}
	d.object("document", data).fill(reflect.ValueOf(v).Elem())
	return d.err
}

// fill reads the object into the struct v, field by tagged field.
func (o object) fill(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		key, opts, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if opts == "omitempty" && !o.has(key) {
			continue
		}
		switch f := v.Field(i); {
		case f.Kind() == reflect.Struct:
			o.child(key).fill(f)
		case f.Kind() == reflect.Ptr:
			f.Set(reflect.New(f.Type().Elem()))
			o.child(key).fill(f.Elem())
		case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
			elems := o.list(key)
			f.Set(reflect.MakeSlice(f.Type(), len(elems), len(elems)))
			for j, e := range elems {
				e.fill(f.Index(j))
			}
		default:
			o.get(key, f.Addr().Interface())
		}
	}
	o.end()
}
