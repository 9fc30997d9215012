package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
)

func TestCanonicalMachineDeterministic(t *testing.T) {
	a, err := CanonicalMachine(config.BDW())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalMachine(config.BDW())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same machine canonicalized to different bytes:\n%q\n%q", a, b)
	}
}

// TestCanonicalMachineInjective flips one field at a time and demands a
// distinct encoding for each perturbation — the property the cache key
// depends on.
func TestCanonicalMachineInjective(t *testing.T) {
	base, err := CanonicalMachine(config.BDW())
	if err != nil {
		t.Fatal(err)
	}
	perturb := []func(*config.Machine){
		func(m *config.Machine) { m.Core.ROBSize++ },
		func(m *config.Machine) { m.Core.FetchWidth++ },
		func(m *config.Machine) { m.Hierarchy.L1D.SizeBytes *= 2 },
		func(m *config.Machine) { m.Hierarchy.Mem.Latency++ },
		func(m *config.Machine) { m.FreqGHz += 0.1 },
		func(m *config.Machine) { m.Name = "BDW2" },
		func(m *config.Machine) { m.Core.MemDisambiguation = !m.Core.MemDisambiguation },
	}
	seen := map[string]int{string(base): -1}
	for i, p := range perturb {
		m := config.BDW()
		p(&m)
		enc, err := CanonicalMachine(m)
		if err != nil {
			t.Fatalf("perturbation %d: %v", i, err)
		}
		if prev, dup := seen[string(enc)]; dup {
			t.Fatalf("perturbation %d collides with %d", i, prev)
		}
		seen[string(enc)] = i
	}
}

func TestCanonicalMachineRejectsInvalid(t *testing.T) {
	m := config.BDW()
	m.Core.FetchWidth = -1
	if _, err := CanonicalMachine(m); !errors.Is(err, ErrBadValue) {
		t.Fatalf("negative width: got %v, want ErrBadValue", err)
	}

	m = config.BDW()
	m.FreqGHz = math.NaN()
	_, err := CanonicalMachine(m)
	if !errors.Is(err, ErrBadValue) {
		t.Fatalf("NaN clock: got %v, want ErrBadValue", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "config.Machine.FreqGHz" {
		t.Fatalf("NaN clock: got field error %+v, want config.Machine.FreqGHz", fe)
	}

	m = config.BDW()
	m.FreqGHz = math.Inf(1)
	if _, err := CanonicalMachine(m); !errors.Is(err, ErrBadValue) {
		t.Fatalf("infinite clock: got %v, want ErrBadValue", err)
	}
}

func TestParseSchemeTyped(t *testing.T) {
	for name, want := range map[string]core.WrongPathScheme{
		"":            core.WrongPathOracle,
		"oracle":      core.WrongPathOracle,
		"simple":      core.WrongPathSimple,
		"speculative": core.WrongPathSpeculative,
	} {
		got, err := ParseScheme(name)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseScheme("orcale"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("misspelled scheme: got %v, want ErrBadValue", err)
	}
	if _, err := ParseWrongPathMode("synthetic"); !errors.Is(err, ErrBadValue) {
		t.Fatalf("misspelled mode: got %v, want ErrBadValue", err)
	}
	if m, err := ParseWrongPathMode("synth"); err != nil || m != cpu.WrongPathSynth {
		t.Fatalf("ParseWrongPathMode(synth) = %v, %v", m, err)
	}
}

func TestValidateOptionsRange(t *testing.T) {
	if err := ValidateOptions(Default()); err != nil {
		t.Fatal(err)
	}
	if err := ValidateOptions(Options{Scheme: core.WrongPathScheme(7)}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("out-of-range scheme: got %v, want ErrBadValue", err)
	}
	if err := ValidateOptions(Options{WrongPath: cpu.WrongPathMode(-1)}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("out-of-range mode: got %v, want ErrBadValue", err)
	}
}

// TestCanonicalOptionsKeySpace checks that every measurement-relevant field
// splits the encoding and the two excluded fields do not.
func TestCanonicalOptionsKeySpace(t *testing.T) {
	base, err := CanonicalOptions(Default())
	if err != nil {
		t.Fatal(err)
	}

	// NoSkip and Context must not change the canonical bytes: both are
	// bit-identical/irrelevant to the measurement.
	o := Default()
	o.NoSkip = true
	o.Context = context.Background()
	same, err := CanonicalOptions(o)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, same) {
		t.Fatalf("NoSkip/Context changed the canonical options:\n%q\n%q", base, same)
	}

	perturb := []func(*Options){
		func(o *Options) { o.CPI = !o.CPI },
		func(o *Options) { o.FLOPS = !o.FLOPS },
		func(o *Options) { o.MemDepth = !o.MemDepth },
		func(o *Options) { o.Structural = !o.Structural },
		func(o *Options) { o.Fetch = !o.Fetch },
		func(o *Options) { o.Scheme = core.WrongPathSimple },
		func(o *Options) { o.WrongPath = cpu.WrongPathSynth },
		func(o *Options) { o.WarmupUops += 1000 },
	}
	seen := map[string]int{string(base): -1}
	for i, p := range perturb {
		o := Default()
		p(&o)
		enc, err := CanonicalOptions(o)
		if err != nil {
			t.Fatalf("perturbation %d: %v", i, err)
		}
		if prev, dup := seen[string(enc)]; dup {
			t.Fatalf("perturbation %d collides with %d", i, prev)
		}
		seen[string(enc)] = i
	}
}

func TestCanonicalBytesInjectivityCorners(t *testing.T) {
	// A string containing separator bytes must not collide with structure.
	type s struct{ A, B string }
	x, err := CanonicalBytes("s", s{A: `x";B="y`, B: ""})
	if err != nil {
		t.Fatal(err)
	}
	y, err := CanonicalBytes("s", s{A: "x", B: "y"})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(x, y) {
		t.Fatal("quoting failed: embedded separators collided")
	}

	// Maps encode sorted, so insertion order is invisible.
	m1 := map[string]int{"a": 1, "b": 2}
	m2 := map[string]int{"b": 2, "a": 1}
	e1, err := CanonicalBytes("m", m1)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := CanonicalBytes("m", m2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e1, e2) {
		t.Fatal("map encoding depends on insertion order")
	}
}

// TestCanonicalUncoreShapeKeys pins the cache-key contract of the sliced
// uncore knobs: the default shape encodes exactly as it did before the
// fields existed (no stored key changed when the knobs were added), spelled
// out defaults normalize onto the omitted form, and any non-default shape
// keys a distinct configuration.
func TestCanonicalUncoreShapeKeys(t *testing.T) {
	base, err := CanonicalMachine(config.BDW())
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(base, []byte("L3Slices")) || bytes.Contains(base, []byte("MemChannels")) {
		t.Fatalf("default machine encodes the uncore shape fields, breaking every pre-slicing key:\n%q", base)
	}

	one := config.BDW()
	one.Hierarchy.L3Slices = 1
	one.Hierarchy.MemChannels = 1
	ob, err := CanonicalMachine(one)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, ob) {
		t.Fatalf("explicit slices=1/channels=1 must key like the default:\n%q\n%q", base, ob)
	}

	followed := config.BDW()
	followed.Hierarchy.L3Slices = 4
	fb, err := CanonicalMachine(followed)
	if err != nil {
		t.Fatal(err)
	}
	spelled := config.BDW()
	spelled.Hierarchy.L3Slices = 4
	spelled.Hierarchy.MemChannels = 4 // the channel count slices=4 implies
	sb, err := CanonicalMachine(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, sb) {
		t.Fatalf("channels equal to the slice count must key like the implied default:\n%q\n%q", fb, sb)
	}
	if bytes.Equal(base, fb) {
		t.Fatal("slices=4 must key differently from the monolithic default")
	}

	wide := config.BDW()
	wide.Hierarchy.L3Slices = 4
	wide.Hierarchy.MemChannels = 8
	wb, err := CanonicalMachine(wide)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(fb, wb) {
		t.Fatal("channels=8 must key differently from the implied channels=4")
	}

	bad := config.BDW()
	bad.Hierarchy.L3Slices = 3
	if _, err := CanonicalMachine(bad); !errors.Is(err, ErrBadValue) {
		t.Fatalf("non-power-of-two slice count: got %v, want ErrBadValue", err)
	}
	bad = config.BDW()
	bad.Hierarchy.L3Slices = 4
	bad.Hierarchy.MemChannels = 2
	if _, err := CanonicalMachine(bad); !errors.Is(err, ErrBadValue) {
		t.Fatalf("fewer channels than slices: got %v, want ErrBadValue", err)
	}
}

// FuzzCanonicalEncoding drives CanonicalOptions and CanonicalMachine with
// arbitrary option values and machine fields. On every input neither
// panics and every rejection wraps ErrBadValue. An accepted value encodes
// to the same bytes again (the encoding is a pure function of the value);
// NoSkip and Context never change the option bytes; and spelling out the
// uncore defaults (one L3 slice, a channel per slice) never changes the
// machine bytes.
func FuzzCanonicalEncoding(f *testing.F) {
	f.Add(true, false, false, false, false, 0, 0, uint64(0), false, uint8(0), 0, 0, 0, 0.0)
	f.Add(true, true, true, true, true, 2, 1, uint64(50_000), true, uint8(2), 224, 4, 8, 2.1)
	f.Add(false, true, false, true, false, 1, 1, uint64(1), false, uint8(1), 1, 1, 1, math.NaN())
	f.Add(true, false, true, false, true, 3, -1, uint64(math.MaxUint64), true, uint8(0), -5, 3, 2, math.Inf(1))
	f.Add(true, false, false, false, false, -1, 2, uint64(7), false, uint8(2), 1<<30, 128, 64, -1.0)
	f.Fuzz(func(t *testing.T, cpi, flops, memDepth, structural, fetch bool, scheme, wp int,
		warmup uint64, noSkip bool, machine uint8, robDelta, slices, channels int, freqDelta float64) {
		opts := Options{CPI: cpi, FLOPS: flops, MemDepth: memDepth, Structural: structural, Fetch: fetch,
			Scheme: core.WrongPathScheme(scheme), WrongPath: cpu.WrongPathMode(wp), WarmupUops: warmup}
		ob, err := CanonicalOptions(opts)
		if err != nil {
			if !errors.Is(err, ErrBadValue) {
				t.Fatalf("CanonicalOptions: error does not wrap ErrBadValue: %v", err)
			}
		} else {
			again, err := CanonicalOptions(opts)
			if err != nil || !bytes.Equal(ob, again) {
				t.Fatalf("CanonicalOptions not stable: %q then %q (%v)", ob, again, err)
			}
			opts.NoSkip = noSkip
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opts.Context = ctx
			if with, err := CanonicalOptions(opts); err != nil || !bytes.Equal(ob, with) {
				t.Fatalf("NoSkip/Context changed the option bytes: %q vs %q (%v)", ob, with, err)
			}
		}

		m := []config.Machine{config.BDW(), config.KNL(), config.SKX()}[machine%3]
		m.Core.ROBSize += robDelta
		m.FreqGHz += freqDelta
		m.Hierarchy.L3Slices = slices
		m.Hierarchy.MemChannels = channels
		mb, err := CanonicalMachine(m)
		if err != nil {
			if !errors.Is(err, ErrBadValue) {
				t.Fatalf("CanonicalMachine: error does not wrap ErrBadValue: %v", err)
			}
			return
		}
		if again, err := CanonicalMachine(m); err != nil || !bytes.Equal(mb, again) {
			t.Fatalf("CanonicalMachine not stable (%v)", err)
		}
		spelled := m
		if spelled.Hierarchy.L3Slices == 0 {
			spelled.Hierarchy.L3Slices = 1
		}
		if spelled.Hierarchy.MemChannels == 0 {
			spelled.Hierarchy.MemChannels = spelled.Hierarchy.SliceCount()
		}
		if sb, err := CanonicalMachine(spelled); err != nil || !bytes.Equal(mb, sb) {
			t.Fatalf("spelling out the uncore defaults (slices %d→%d, channels %d→%d) changed the machine bytes (%v)",
				m.Hierarchy.L3Slices, spelled.Hierarchy.L3Slices, m.Hierarchy.MemChannels, spelled.Hierarchy.MemChannels, err)
		}
	})
}

// TestCanonicalMachineAllocs gates the canonical walker's allocations: it
// reads struct field metadata from its per-type cache and formats a field
// path only for a rejection, so encoding a machine costs its output buffer,
// not a string per field.
func TestCanonicalMachineAllocs(t *testing.T) {
	m := config.BDW()
	if _, err := CanonicalMachine(m); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = CanonicalMachine(m) }); n > 3 {
		t.Errorf("CanonicalMachine(BDW) allocates %v times, want <= 3", n)
	}
}
