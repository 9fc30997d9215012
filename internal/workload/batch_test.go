package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"perfstacks/internal/trace"
)

// TestGeneratorBatchScalarEquivalence is the batch/scalar equivalence
// property for the synthetic generator: ReadBatch must deliver the exact uop
// stream repeated Next calls would — same RNG draw order, same cached static
// properties — for every profile, seed and batch size.
func TestGeneratorBatchScalarEquivalence(t *testing.T) {
	const n = 50_000
	batchSizes := []int{1, 3, 7, 64, 256}
	profiles := []string{"mcf", "exchange2", "lbm", "imagick", "cactuBSSN"}
	seeds := []uint64{0, 1, 0x5eed}

	for _, name := range profiles {
		prof, ok := SPECProfile(name)
		if !ok {
			t.Fatalf("unknown profile %q", name)
		}
		for _, seed := range seeds {
			p := prof
			p.Seed = seed

			scalar := NewGenerator(p)
			want := make([]trace.Uop, n)
			for i := range want {
				u, ok := scalar.Next()
				if !ok {
					t.Fatalf("generator ended at uop %d", i)
				}
				want[i] = u
			}

			for _, bs := range batchSizes {
				t.Run(fmt.Sprintf("%s/seed=%d/batch=%d", name, seed, bs), func(t *testing.T) {
					g := NewGenerator(p)
					buf := make([]trace.Uop, bs)
					got := 0
					for got < n {
						m := g.ReadBatch(buf)
						if m != bs {
							t.Fatalf("ReadBatch = %d, want %d (generator never ends)", m, bs)
						}
						for i := 0; i < m && got < n; i, got = i+1, got+1 {
							if buf[i] != want[got] {
								t.Fatalf("uop %d differs:\nscalar %+v\nbatch  %+v",
									got, want[got], buf[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestGeneratorBatchInterleave mixes Next and ReadBatch on one generator;
// the merged stream must match a pure-scalar run draw for draw.
func TestGeneratorBatchInterleave(t *testing.T) {
	const n = 20_000
	p, _ := SPECProfile("mcf")

	scalar := NewGenerator(p)
	want := make([]trace.Uop, n)
	for i := range want {
		want[i], _ = scalar.Next()
	}

	g := NewGenerator(p)
	var got []trace.Uop
	buf := make([]trace.Uop, 17)
	for len(got) < n {
		if len(got)%2 == 0 {
			u, _ := g.Next()
			got = append(got, u)
		} else {
			m := g.ReadBatch(buf)
			got = append(got, buf[:m]...)
		}
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("uop %d differs:\nscalar %+v\nmixed  %+v", i, want[i], got[i])
		}
	}
}

// kernelCase builds one DeepBench kernel generator; every call returns a
// fresh generator at the start of the same stream.
type kernelCase struct {
	name string
	mk   func() trace.BatchReader
}

// kernelCases covers both kernels in both code styles: GEMM training and
// inference sizes (an inference size with N <= 4 has two accumulators and a
// masked remainder), each conv phase, and conv with a barrier interval and
// extra per-group overhead as the SMP harness sets them.
func kernelCases() []kernelCase {
	var cases []kernelCase
	for _, style := range []CodeStyle{StyleKNL, StyleSKX} {
		for _, cfg := range []GemmConfig{GemmTrain()[0], GemmInference()[1], GemmInference()[9]} {
			cases = append(cases, kernelCase{"gemm-" + cfg.Name + "-" + style.String(),
				func() trace.BatchReader { return NewGemm(style, cfg, 16, 1, 0) }})
		}
		cases = append(cases, kernelCase{"gemm-barrier-" + style.String(),
			func() trace.BatchReader { return NewGemm(style, GemmTrain()[2], 16, 3, 777) }})
		for _, phase := range ConvPhases() {
			cases = append(cases, kernelCase{"conv-" + phase.String() + "-" + style.String(),
				func() trace.BatchReader { return NewConv(style, ConvTrain()[6], phase, 16, 1, 0) }})
			cases = append(cases, kernelCase{"conv-" + phase.String() + "-barrier-" + style.String(),
				func() trace.BatchReader {
					c := NewConv(style, ConvTrain()[0], phase, 16, 13, 500)
					c.SetExtraOverhead(2)
					return c
				}})
		}
	}
	return cases
}

// TestKernelBatchScalarEquivalence is the batch/scalar equivalence property
// for the GEMM and conv kernels: ReadBatch delivers the exact stream
// repeated Next calls would, for every batch size, with Next and ReadBatch
// interleaved on one generator, and under trace.Limit at truncation points
// on both sides of a batch boundary.
func TestKernelBatchScalarEquivalence(t *testing.T) {
	const n = 20_000
	for _, kc := range kernelCases() {
		want := take(kc.mk(), n)
		check := func(t *testing.T, got []trace.Uop) {
			t.Helper()
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("uop %d differs:\nscalar %+v\nbatch  %+v", i, want[i], got[i])
				}
			}
		}
		for _, bs := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("%s/batch=%d", kc.name, bs), func(t *testing.T) {
				g := kc.mk()
				buf := make([]trace.Uop, bs)
				var got []trace.Uop
				for len(got) < n {
					m := g.ReadBatch(buf)
					if m != bs {
						t.Fatalf("ReadBatch = %d, want %d (kernels never end)", m, bs)
					}
					got = append(got, buf[:m]...)
				}
				check(t, got[:n])
			})
		}
		t.Run(kc.name+"/interleave", func(t *testing.T) {
			g := kc.mk()
			buf := make([]trace.Uop, 17)
			var got []trace.Uop
			for len(got) < n {
				if len(got)%2 == 0 {
					u, _ := g.Next()
					got = append(got, u)
				} else {
					m := g.ReadBatch(buf)
					got = append(got, buf[:m]...)
				}
			}
			check(t, got[:n])
		})
		t.Run(kc.name+"/limit", func(t *testing.T) {
			for _, limit := range []int{0, 1, 255, 256, 257, 1003} {
				l := trace.NewLimit(kc.mk(), uint64(limit))
				buf := make([]trace.Uop, 256)
				var got []trace.Uop
				for {
					m := l.ReadBatch(buf)
					if m == 0 {
						break
					}
					got = append(got, buf[:m]...)
				}
				if len(got) != limit {
					t.Fatalf("limit %d delivered %d uops", limit, len(got))
				}
				check(t, got)
			}
		})
	}
}

// kernelDigests pins the SHA-256 of the first 20000 uops each kernel case
// streams (little-endian trace.Uop images, in order). They were recorded
// from the kernels' original scalar generators: moving generation in place
// must leave every stream bit-identical.
var kernelDigests = map[string]string{
	"gemm-train-1760x128x1760-knl-jit": "121f2fcc181f0df06eb68ccb6fd879ffc36acb3a2962363b6178dae8b0f407d2",
	"gemm-inf-35x700x2048-knl-jit":     "97ff18722aa9e320a866d0992abd1870846fd7e5c8f18ad08e0bc4217a77ed8f",
	"gemm-inf-7680x2x2560-knl-jit":     "067f571c5e97837f08cdc1f8307a04c78b9b384e5d11c7c9ba812cb27d0ea866",
	"gemm-barrier-knl-jit":             "519e5cc05ad6de764591ca8beba4169db52c049a8a206957766fb7de0407257c",
	"conv-fwd-knl-jit":                 "9e2696b2855b148b1f8497e027bf4dcdfc93759bf7c636ef51ac75af10ff493e",
	"conv-fwd-barrier-knl-jit":         "4819d94d0e9e617a14c30d4e05ee42fd4af48556e05ec45ba4d1ca65216ac5b7",
	"conv-bwd_f-knl-jit":               "c8fdf9577e132fed784fb453d343a2a10e8f137bfe9da899b3ce3a54365f4fef",
	"conv-bwd_f-barrier-knl-jit":       "e7732c97b65160dd9a56ce28878bf478a02a36967d0f67c4de3ad3bec30e1fa5",
	"conv-bwd_d-knl-jit":               "d199df0d21f29db0d3669543d19fd81a1e5f724b73b057103f5becb5dfbf718e",
	"conv-bwd_d-barrier-knl-jit":       "1712e00f1a351227869a83942079b15225d12711688f376b40be43cdf11ad189",
	"gemm-train-1760x128x1760-skx":     "ffb69d028dffbe1b39f020d7bf40d1de4ef516a84f00d580b56de643531853b4",
	"gemm-inf-35x700x2048-skx":         "e5a2b80c2bced4883ef98b6653a3266e64f924bdaa7ad40e2141492b99362fd4",
	"gemm-inf-7680x2x2560-skx":         "af6bef4f94edea9c27f42ae2c697e078c2e6e56b34b60f3cc17e33cc7c5f72d1",
	"gemm-barrier-skx":                 "1f855765f4829c9d7ca608d62d0db32a0f9f03f335fdeafc896c339f76af25b5",
	"conv-fwd-skx":                     "aebae754dea12da048b033d98d970031a733f28d01455115a7a80d41b2558717",
	"conv-fwd-barrier-skx":             "b6800fca1fddb4ee9b6a1483724d208413408d144dc8da65b8cd41b25a5f79e1",
	"conv-bwd_f-skx":                   "9511e78cafbbba9a4603dcb538f74bb44fa8e3772a71ac073aee8874a7bcc716",
	"conv-bwd_f-barrier-skx":           "9bcac8c8575330d59b54fd0f0afa5d397dc9ffddc467ec9b89adede206d53b1b",
	"conv-bwd_d-skx":                   "701a546dd605220f7f9e7f61da20fc9d6c14e81eb1eba3ac27ac12994fcf5e0c",
	"conv-bwd_d-barrier-skx":           "d05fd9a44abcbd7ff0056336940450b0589b2f37085597cd0647b76f38463375",
}

func TestKernelStreamDigests(t *testing.T) {
	for _, kc := range kernelCases() {
		h := sha256.New()
		if err := binary.Write(h, binary.LittleEndian, take(kc.mk(), 20_000)); err != nil {
			t.Fatal(err)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := kernelDigests[kc.name]; got != want {
			t.Errorf("%s: stream digest %s, want %s", kc.name, got, want)
		}
	}
}
