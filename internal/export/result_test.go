package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"perfstacks/internal/config"
	"perfstacks/internal/sim"
	"perfstacks/internal/trace"
	"perfstacks/internal/workload"
)

// runReference produces a small but fully populated result.
func runReference(t testing.TB) sim.Result {
	t.Helper()
	prof, ok := workload.SPECProfile("mcf")
	if !ok {
		t.Fatal("missing mcf profile")
	}
	opts := sim.Default()
	opts.FLOPS = true
	opts.MemDepth = true
	opts.Structural = true
	opts.Fetch = true
	opts.WarmupUops = 2_000
	res := sim.Run(config.BDW(), trace.NewLimit(workload.NewGenerator(prof), 10_000), opts)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res
}

func TestResultRoundTrip(t *testing.T) {
	res := runReference(t)
	payload, err := EncodeResult(&res, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	got, wl, err := DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	if wl != "mcf" {
		t.Fatalf("workload %q, want mcf", wl)
	}
	if !reflect.DeepEqual(got.Stacks, res.Stacks) {
		t.Fatal("CPI stacks did not round-trip")
	}
	if got.FLOPS != res.FLOPS || got.MemDepth != res.MemDepth ||
		got.Structural != res.Structural || got.Fetch != res.Fetch {
		t.Fatal("optional stacks did not round-trip")
	}
	if got.Stats != res.Stats || got.Bpred != res.Bpred {
		t.Fatal("stats did not round-trip")
	}
	if got.Machine != res.Machine {
		t.Fatalf("machine %q, want %q", got.Machine, res.Machine)
	}
}

// TestResultEncodingDeterministic re-encodes both the original and the
// decoded result and demands identical bytes — the property that makes
// cache hits byte-identical to cold responses.
func TestResultEncodingDeterministic(t *testing.T) {
	res := runReference(t)
	a, err := EncodeResult(&res, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeResult(&res, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("encoding the same result twice produced different bytes")
	}
	decoded, wl, err := DecodeResult(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := EncodeResult(decoded, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("decode+re-encode changed the bytes")
	}
}

func TestResultVersionMismatch(t *testing.T) {
	res := runReference(t)
	payload, err := EncodeResult(&res, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = "perfstacks-v0"
	stale, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeResult(stale); !errors.Is(err, ErrResultVersion) {
		t.Fatalf("stale version: got %v, want ErrResultVersion", err)
	}
}

func TestEncodeResultRefusesPartial(t *testing.T) {
	res := runReference(t)
	res.Err = errors.New("trace faulted")
	if _, err := EncodeResult(&res, "mcf"); err == nil {
		t.Fatal("partial result encoded without error")
	}
}

// TestResultDocMirrorsResultJSON keeps DecodeResult's document in step with
// the wire type: every ResultJSON field but the two named views, in order,
// with the same type and tag.
func TestResultDocMirrorsResultJSON(t *testing.T) {
	var want []reflect.StructField
	wire := reflect.TypeOf(ResultJSON{})
	for i := 0; i < wire.NumField(); i++ {
		if f := wire.Field(i); f.Name != "Named" && f.Name != "NamedFLOPS" {
			want = append(want, f)
		}
	}
	doc := reflect.TypeOf(resultDoc{})
	if doc.NumField() != len(want) {
		t.Fatalf("resultDoc has %d fields, ResultJSON without its views %d", doc.NumField(), len(want))
	}
	for i, w := range want {
		if f := doc.Field(i); f.Name != w.Name || f.Type != w.Type || f.Tag != w.Tag {
			t.Errorf("resultDoc field %d is %s %s %q, want %s %s %q", i, f.Name, f.Type, f.Tag, w.Name, w.Type, w.Tag)
		}
	}
}

func TestDecodeResultGarbage(t *testing.T) {
	if _, _, err := DecodeResult([]byte("{not json")); err == nil {
		t.Fatal("garbage decoded without error")
	}
	res := runReference(t)
	payload, err := EncodeResult(&res, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeResult(append(payload, "{}"...)); err == nil {
		t.Fatal("a payload with trailing data decoded without error")
	}
}

// BenchmarkDecodeResult measures decoding one cached result with all four
// optional stacks and both named views (mcf on BDW), the work of every
// cache hit served as a sim.Result.
func BenchmarkDecodeResult(b *testing.B) {
	res := runReference(b)
	payload, err := EncodeResult(&res, "mcf")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeResult(payload); err != nil {
			b.Fatal(err)
		}
	}
}
