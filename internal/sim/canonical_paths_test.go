package sim

import (
	"errors"
	"math"
	"testing"
)

// canonLeaf, canonTree and the one-field wrappers below reach every kind
// the canonical walker visits, so the tests pin both the bytes of each kind
// and the dotted field path each rejection names.
type canonLeaf struct{ F float64 }

type canonTree struct {
	N struct{ B canonLeaf }
	A [3]canonLeaf
	S []canonLeaf
	M map[string]canonLeaf
	K map[float64]int
	P *canonLeaf
	I any
	Z int `canon:"omitzero"`
}

type canonUnexported struct {
	A int
	x int
}

type canonChan struct{ C chan int }

type canonFunc struct{ Fn func() }

// TestCanonicalBytesErrorPaths pins the FieldError every rejection carries:
// the exact Field path and the full error string.
func TestCanonicalBytesErrorPaths(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	cases := []struct {
		name  string
		v     any
		field string
		err   string
	}{
		{"nested struct", func() canonTree { var v canonTree; v.N.B.F = nan; return v }(),
			"T.N.B.F", "sim: invalid value: T.N.B.F: NaN is not a valid configuration value"},
		{"array element", func() canonTree { var v canonTree; v.A[2].F = inf; return v }(),
			"T.A[2].F", "sim: invalid value: T.A[2].F: infinite values are not valid configuration values"},
		{"slice of structs", canonTree{S: []canonLeaf{{1}, {nan}}},
			"T.S[1].F", "sim: invalid value: T.S[1].F: NaN is not a valid configuration value"},
		{"map value", canonTree{M: map[string]canonLeaf{"a": {1}, "b": {nan}}},
			"T.M[key].F", "sim: invalid value: T.M[key].F: NaN is not a valid configuration value"},
		{"map key", canonTree{K: map[float64]int{nan: 1}},
			"T.K.key", "sim: invalid value: T.K.key: NaN is not a valid configuration value"},
		{"pointer", canonTree{P: &canonLeaf{nan}},
			"T.P.F", "sim: invalid value: T.P.F: NaN is not a valid configuration value"},
		{"interface", canonTree{I: 1},
			"T.I", "sim: invalid value: T.I: interface-typed values cannot be canonicalized"},
		{"unexported field", canonUnexported{},
			"T.x", "sim: invalid value: T.x: unexported fields cannot be canonicalized"},
		{"channel", canonChan{},
			"T.C", "sim: invalid value: T.C: chan values cannot be canonicalized"},
		{"func", canonFunc{Fn: func() {}},
			"T.Fn", "sim: invalid value: T.Fn: func values cannot be canonicalized"},
		{"top-level float", nan,
			"T", "sim: invalid value: T: NaN is not a valid configuration value"},
		{"slice of slices", [][]float64{{1}, {2, inf}},
			"T[1][1]", "sim: invalid value: T[1][1]: infinite values are not valid configuration values"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := CanonicalBytes("T", c.v)
			if b != nil {
				t.Errorf("rejected value returned bytes %q", b)
			}
			var fe *FieldError
			if !errors.As(err, &fe) || !errors.Is(err, ErrBadValue) {
				t.Fatalf("got %v, want a *FieldError wrapping ErrBadValue", err)
			}
			if fe.Field != c.field {
				t.Errorf("Field = %q, want %q", fe.Field, c.field)
			}
			if err.Error() != c.err {
				t.Errorf("error = %q, want %q", err.Error(), c.err)
			}
		})
	}
}

// TestCanonicalBytesKinds pins the encoding of every accepted kind: nested
// and array structs, nil and non-nil slices, maps (sorted by encoded key),
// pointers, nil interfaces and an omitted zero-valued omitzero field.
func TestCanonicalBytesKinds(t *testing.T) {
	v := canonTree{
		A: [3]canonLeaf{{0.5}, {-2}, {1e300}},
		M: map[string]canonLeaf{"b": {2}, "a": {1}},
		K: map[float64]int{10: 1, 9: 2},
		P: &canonLeaf{3},
	}
	v.N.B.F = 1.25
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"tree", v, `T:{N={B={F=1.25;};};A=[3:{F=0.5;};{F=-2;};{F=1e+300;};];S=nil;` +
			`M=m[2:"a"={F=1;};"b"={F=2;};];K=m[2:10=1;9=2;];P=*{F=3;};I=nil;}`},
		{"omitzero set", canonTree{S: []canonLeaf{}, Z: 7},
			`T:{N={B={F=0;};};A=[3:{F=0;};{F=0;};{F=0;};];S=[0:];M=nil;K=nil;P=nil;I=nil;Z=7;}`},
		{"scalars", struct {
			B  bool
			I8 int8
			U  uint16
			F  float32
			S  string
		}{true, -3, 9, 0.5, "q\"x"}, `T:{B=true;I8=-3;U=9;F=0.5;S="q\"x";}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, err := CanonicalBytes("T", c.v)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != c.want {
				t.Errorf("got  %s\nwant %s", b, c.want)
			}
		})
	}
}
