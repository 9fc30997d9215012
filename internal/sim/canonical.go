// Canonical encoding and boundary validation.
//
// The result-cache service keys stored measurements by content: SHA-256 over
// the canonical bytes of (machine configuration, run options, trace
// identity) plus the schema version. Canonical bytes must be injective —
// two semantically different configurations must never encode to the same
// byte string — and total: every value that can reach a cache key either
// encodes deterministically or is rejected with a typed error at the API
// boundary, instead of surfacing as a panic or a NaN deep inside the core
// loop.
package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
)

// SchemaVersion names the simulator's observable behaviour and the result
// wire format. It is folded into every cache key and stamped into every
// serialized result, so bumping it invalidates all previously stored
// measurements at once. Bump it whenever a change alters what a simulation
// measures (accounting semantics, pipeline model, workload generation) or
// how results serialize — structural config changes need no bump, since any
// added or renamed field already changes the canonical bytes and therefore
// the key.
const SchemaVersion = "perfstacks-v1"

// ErrBadValue marks a configuration or option rejected at the API boundary:
// a NaN or infinite float, a negative width, an unknown enum value or name.
// Test with errors.Is; errors.As against *FieldError recovers the field.
var ErrBadValue = errors.New("sim: invalid value")

// FieldError pins an ErrBadValue to the field (dotted path) that carried it.
type FieldError struct {
	// Field is the dotted path of the offending field, e.g.
	// "Machine.Core.FetchWidth" or "Options.Scheme".
	Field string
	// Reason says what was wrong with the value.
	Reason string
}

// Error implements the error interface.
func (e *FieldError) Error() string {
	return fmt.Sprintf("%s: %s: %s", ErrBadValue.Error(), e.Field, e.Reason)
}

// Unwrap makes errors.Is(err, ErrBadValue) hold.
func (e *FieldError) Unwrap() error { return ErrBadValue }

// badField builds the standard typed boundary error.
func badField(field, reason string) error {
	return &FieldError{Field: field, Reason: reason}
}

// ParseScheme maps the wire/flag names onto the wrong-path accounting
// schemes. Unknown names return a typed ErrBadValue instead of silently
// defaulting — a misspelled scheme must not masquerade as an oracle run (or
// worse, become a distinct cache key serving wrong data).
func ParseScheme(name string) (core.WrongPathScheme, error) {
	switch name {
	case "", "oracle":
		return core.WrongPathOracle, nil
	case "simple":
		return core.WrongPathSimple, nil
	case "speculative":
		return core.WrongPathSpeculative, nil
	}
	return 0, badField("Options.Scheme", fmt.Sprintf("unknown wrong-path scheme %q (want oracle, simple or speculative)", name))
}

// ParseWrongPathMode maps the wire/flag names onto the pipeline wrong-path
// models, with the same typed-rejection contract as ParseScheme.
func ParseWrongPathMode(name string) (cpu.WrongPathMode, error) {
	switch name {
	case "", "none":
		return cpu.WrongPathNone, nil
	case "synth":
		return cpu.WrongPathSynth, nil
	}
	return 0, badField("Options.WrongPath", fmt.Sprintf("unknown wrong-path mode %q (want none or synth)", name))
}

// ValidateOptions rejects options whose enum fields are outside their
// defined ranges. Options built through ParseScheme/ParseWrongPathMode are
// valid by construction; this catches hand-assembled values (a cast integer,
// an uninitialized field struct-copied from bad input) before they select
// undefined accounting behaviour in the core loop.
func ValidateOptions(opts Options) error {
	if opts.Scheme < core.WrongPathOracle || opts.Scheme > core.WrongPathSpeculative {
		return badField("Options.Scheme", fmt.Sprintf("wrong-path scheme %d out of range", opts.Scheme))
	}
	if opts.WrongPath < cpu.WrongPathNone || opts.WrongPath > cpu.WrongPathSynth {
		return badField("Options.WrongPath", fmt.Sprintf("wrong-path mode %d out of range", opts.WrongPath))
	}
	return nil
}

// CanonicalOptions returns the canonical bytes of the measurement-relevant
// option fields. NoSkip and Context are deliberately excluded: skipping is
// bit-identical by contract (TestSkipEquivalence) and cancellation never
// changes a completed measurement, so neither may split the cache key space.
func CanonicalOptions(opts Options) ([]byte, error) {
	if err := ValidateOptions(opts); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 128)
	buf = append(buf, "sim.Options{"...)
	buf = appendKV(buf, "CPI", strconv.FormatBool(opts.CPI))
	buf = appendKV(buf, "FLOPS", strconv.FormatBool(opts.FLOPS))
	buf = appendKV(buf, "MemDepth", strconv.FormatBool(opts.MemDepth))
	buf = appendKV(buf, "Structural", strconv.FormatBool(opts.Structural))
	buf = appendKV(buf, "Fetch", strconv.FormatBool(opts.Fetch))
	buf = appendKV(buf, "Scheme", opts.Scheme.String())
	buf = appendKV(buf, "WrongPath", strconv.Itoa(int(opts.WrongPath)))
	// AppendUint, unlike FormatUint, allocates no string for the count.
	buf = append(buf, "WarmupUops="...)
	buf = strconv.AppendUint(buf, opts.WarmupUops, 10)
	return append(buf, ';', '}'), nil
}

// CanonicalMachine validates m and returns its canonical bytes. Unlike
// RunCustom — which panics on an invalid machine, appropriate for the
// trusted batch drivers — this is the API-boundary form: a negative width, a
// too-small cache or a NaN clock comes back as a typed ErrBadValue the
// caller can turn into a 400 response or a CLI usage error.
func CanonicalMachine(m config.Machine) ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, &FieldError{Field: "Machine", Reason: err.Error()}
	}
	// Normalize the uncore cardinality knobs to their omitted form: 0 and 1
	// slices are the same monolithic L3, and a channel count equal to the
	// slice count is the same device the empty field builds, so spelling the
	// default out must not mint a second key for identical measurements.
	if m.Hierarchy.L3Slices == 1 {
		m.Hierarchy.L3Slices = 0
	}
	if m.Hierarchy.MemChannels == m.Hierarchy.SliceCount() {
		m.Hierarchy.MemChannels = 0
	}
	return CanonicalBytes("config.Machine", m)
}

// appendKV appends one `key=value;` pair.
func appendKV(buf []byte, key, val string) []byte {
	buf = append(buf, key...)
	buf = append(buf, '=')
	buf = append(buf, val...)
	return append(buf, ';')
}

// CanonicalBytes returns a deterministic, injective byte encoding of v
// under the given type label: structs encode field names and values in
// declaration order, maps sort their keys, strings are quoted, lengths are
// explicit. It is total over the configuration value kinds (bools, ints,
// uints, floats, strings, structs, arrays, slices, maps, pointers); floats
// that are NaN or infinite, and kinds that cannot encode canonically
// (channels, functions, non-nil interfaces), are rejected with a typed
// ErrBadValue naming the offending field path.
func CanonicalBytes(label string, v any) ([]byte, error) {
	// Sized so a machine (~1.2 KB) encodes in one allocation.
	buf := make([]byte, 0, 2048)
	buf = append(buf, label...)
	buf = append(buf, ':')
	buf, fe := appendCanonical(buf, reflect.ValueOf(v))
	if fe != nil {
		fe.Field = label + fe.Field
		return nil, fe
	}
	return buf, nil
}

// fieldMeta is what the walker needs of one struct field.
type fieldMeta struct {
	name     string
	exported bool
	// omitzero is the `canon:"omitzero"` tag: a field added after keys of
	// the untagged shape were stored. Its zero value (the semantics every
	// stored key was measured under) is omitted, so adding the field
	// changed no existing key, while any non-zero value encodes and keys a
	// distinct configuration. Injectivity holds because the model treats
	// the zero value and no-field identically.
	omitzero bool
}

// structFields caches fieldMeta per struct type (reflect.Type →
// []fieldMeta), so the walker reads names and tags once per type, not once
// per encoding.
var structFields sync.Map

// fieldsOf returns struct type t's field metadata, from the cache after
// the first call.
func fieldsOf(t reflect.Type) []fieldMeta {
	if fs, ok := structFields.Load(t); ok {
		return fs.([]fieldMeta)
	}
	fs := make([]fieldMeta, t.NumField())
	for i := range fs {
		f := t.Field(i)
		fs[i] = fieldMeta{name: f.Name, exported: f.IsExported(), omitzero: f.Tag.Get("canon") == "omitzero"}
	}
	actual, _ := structFields.LoadOrStore(t, fs)
	return actual.([]fieldMeta)
}

// under prefixes a rejection's path with the step the walker took to reach
// it. Paths are assembled only as an error unwinds, so a successful
// encoding formats none.
func (e *FieldError) under(step string) *FieldError {
	e.Field = step + e.Field
	return e
}

// appendCanonical is CanonicalBytes' recursive worker. A rejection's Field
// holds the path below v; each caller prepends its own step.
func appendCanonical(buf []byte, v reflect.Value) ([]byte, *FieldError) {
	switch v.Kind() {
	case reflect.Bool:
		return strconv.AppendBool(buf, v.Bool()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(buf, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return strconv.AppendUint(buf, v.Uint(), 10), nil
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) {
			return nil, &FieldError{Reason: "NaN is not a valid configuration value"}
		}
		if math.IsInf(f, 0) {
			return nil, &FieldError{Reason: "infinite values are not valid configuration values"}
		}
		return strconv.AppendFloat(buf, f, 'g', -1, 64), nil
	case reflect.String:
		return strconv.AppendQuote(buf, v.String()), nil
	case reflect.Struct:
		buf = append(buf, '{')
		for i, f := range fieldsOf(v.Type()) {
			if !f.exported {
				return nil, &FieldError{Field: "." + f.name, Reason: "unexported fields cannot be canonicalized"}
			}
			fv := v.Field(i)
			if f.omitzero && fv.IsZero() {
				continue
			}
			buf = append(buf, f.name...)
			buf = append(buf, '=')
			var fe *FieldError
			if buf, fe = appendCanonical(buf, fv); fe != nil {
				return nil, fe.under("." + f.name)
			}
			buf = append(buf, ';')
		}
		return append(buf, '}'), nil
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return append(buf, "nil"...), nil
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(v.Len()), 10)
		buf = append(buf, ':')
		for i := 0; i < v.Len(); i++ {
			var fe *FieldError
			if buf, fe = appendCanonical(buf, v.Index(i)); fe != nil {
				return nil, fe.under("[" + strconv.Itoa(i) + "]")
			}
			buf = append(buf, ';')
		}
		return append(buf, ']'), nil
	case reflect.Map:
		if v.IsNil() {
			return append(buf, "nil"...), nil
		}
		keys := v.MapKeys()
		enc := make([]struct {
			k string
			v reflect.Value
		}, len(keys))
		for i, k := range keys {
			kb, fe := appendCanonical(nil, k)
			if fe != nil {
				return nil, fe.under(".key")
			}
			enc[i].k, enc[i].v = string(kb), v.MapIndex(k)
		}
		sort.Slice(enc, func(i, j int) bool { return enc[i].k < enc[j].k })
		buf = append(buf, 'm', '[')
		buf = strconv.AppendInt(buf, int64(len(enc)), 10)
		buf = append(buf, ':')
		for _, e := range enc {
			buf = append(buf, e.k...)
			buf = append(buf, '=')
			var fe *FieldError
			if buf, fe = appendCanonical(buf, e.v); fe != nil {
				return nil, fe.under("[key]")
			}
			buf = append(buf, ';')
		}
		return append(buf, ']'), nil
	case reflect.Pointer:
		if v.IsNil() {
			return append(buf, "nil"...), nil
		}
		buf = append(buf, '*')
		return appendCanonical(buf, v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			return append(buf, "nil"...), nil
		}
		return nil, &FieldError{Reason: "interface-typed values cannot be canonicalized"}
	default:
		return nil, &FieldError{Reason: fmt.Sprintf("%s values cannot be canonicalized", v.Kind())}
	}
}
