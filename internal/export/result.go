package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"perfstacks/internal/bpred"
	"perfstacks/internal/core"
	"perfstacks/internal/cpu"
	"perfstacks/internal/sim"
)

// ResultJSON is the stable wire encoding of one complete simulation result:
// what the result-cache stores on disk and what cmd/simd serves to clients.
// Two properties carry the cache's correctness contract:
//
//   - Versioned: Version is stamped from sim.SchemaVersion at encode time and
//     checked at decode time, so a result written by an older simulator is
//     rejected (ErrResultVersion) and re-simulated instead of served.
//   - Deterministic: encoding the same Result always yields the same bytes
//     (fixed field order, no maps in the raw section), so identical requests
//     get byte-identical responses whether they simulated or hit the cache.
//
// The raw stacks round-trip losslessly; Named carries the human-readable
// component names for direct consumption (plots, curl) and is ignored on
// decode.
type ResultJSON struct {
	Version  string `json:"version"`
	Machine  string `json:"machine"`
	Workload string `json:"workload,omitempty"`

	Stacks     *core.MultiStack      `json:"stacks,omitempty"`
	FLOPS      *core.FLOPSStack      `json:"flops,omitempty"`
	MemDepth   *core.MemDepthStack   `json:"memdepth,omitempty"`
	Structural *core.StructuralStack `json:"structural,omitempty"`
	Fetch      *core.Stack           `json:"fetch,omitempty"`
	Stats      cpu.Stats             `json:"stats"`
	Bpred      bpred.Stats           `json:"bpred"`

	// Named is the component-name view of Stacks (decode ignores it).
	Named *MultiStackJSON `json:"named,omitempty"`
	// NamedFLOPS is the component-name view of FLOPS (decode ignores it).
	NamedFLOPS *FLOPSStackJSON `json:"named_flops,omitempty"`
}

// ErrResultVersion marks a serialized result from a different schema
// version: decodable JSON, but measurements the current simulator no longer
// vouches for. Cache layers treat it as a miss.
var ErrResultVersion = errors.New("export: result schema version mismatch")

// EncodeResult serializes a completed run. Results that ended abnormally
// (res.Err != nil) are refused: partial stacks must never enter a cache or
// cross a wire labeled as measurements.
func EncodeResult(res *sim.Result, workload string) ([]byte, error) {
	if res.Err != nil {
		return nil, fmt.Errorf("export: refusing to encode a partial result: %w", res.Err)
	}
	doc := ResultJSON{
		Version:  sim.SchemaVersion,
		Machine:  res.Machine,
		Workload: workload,
		Stacks:   res.Stacks,
		Stats:    res.Stats,
		Bpred:    res.Bpred,
	}
	// Zero-valued optional stacks elide entirely so "not measured" and
	// "measured nothing" stay distinguishable in the payload.
	if res.FLOPS != (core.FLOPSStack{}) {
		doc.FLOPS = &res.FLOPS
	}
	if res.MemDepth != (core.MemDepthStack{}) {
		doc.MemDepth = &res.MemDepth
	}
	if res.Structural != (core.StructuralStack{}) {
		doc.Structural = &res.Structural
	}
	if res.Fetch != (core.Stack{}) {
		doc.Fetch = &res.Fetch
	}
	if res.Stacks != nil {
		named := MultiStackJSON{Workload: workload, Machine: res.Machine}
		for _, st := range core.Stages() {
			named.Stacks = append(named.Stacks, stackJSON(res.Stacks.Stack(st)))
		}
		doc.Named = &named
	}
	if doc.FLOPS != nil {
		nf := FLOPSStackJSON{
			Cycles: doc.FLOPS.Cycles, Units: doc.FLOPS.K, Lanes: doc.FLOPS.V,
			FLOPs:      doc.FLOPS.FLOPs,
			Components: make(map[string]float64, core.NumFLOPSComponents),
		}
		for c := core.FLOPSComponent(0); c < core.NumFLOPSComponents; c++ {
			nf.Components[c.String()] = doc.FLOPS.Normalized(c)
		}
		doc.NamedFLOPS = &nf
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("export: encoding result: %w", err)
	}
	return buf.Bytes(), nil
}

// resultDoc is ResultJSON without the Named and NamedFLOPS views, the
// fields DecodeResult reads. Decoding into it skips the views' bytes
// instead of building their maps and slices only to drop them.
type resultDoc struct {
	Version  string `json:"version"`
	Machine  string `json:"machine"`
	Workload string `json:"workload,omitempty"`

	Stacks     *core.MultiStack      `json:"stacks,omitempty"`
	FLOPS      *core.FLOPSStack      `json:"flops,omitempty"`
	MemDepth   *core.MemDepthStack   `json:"memdepth,omitempty"`
	Structural *core.StructuralStack `json:"structural,omitempty"`
	Fetch      *core.Stack           `json:"fetch,omitempty"`
	Stats      cpu.Stats             `json:"stats"`
	Bpred      bpred.Stats           `json:"bpred"`
}

// DecodeResult parses an encoded result back into a sim.Result plus its
// workload label. A payload stamped with a different schema version fails
// with ErrResultVersion; one with anything but whitespace after the result
// object fails to decode.
func DecodeResult(payload []byte) (*sim.Result, string, error) {
	var doc resultDoc
	// Unmarshal reads payload in place, where a Decoder would first copy
	// it into a buffer of its own.
	if err := json.Unmarshal(payload, &doc); err != nil {
		return nil, "", fmt.Errorf("export: decoding result: %w", err)
	}
	if doc.Version != sim.SchemaVersion {
		return nil, "", fmt.Errorf("%w: payload %q, simulator %q",
			ErrResultVersion, doc.Version, sim.SchemaVersion)
	}
	res := &sim.Result{
		Machine: doc.Machine,
		Stacks:  doc.Stacks,
		Stats:   doc.Stats,
		Bpred:   doc.Bpred,
	}
	if doc.FLOPS != nil {
		res.FLOPS = *doc.FLOPS
	}
	if doc.MemDepth != nil {
		res.MemDepth = *doc.MemDepth
	}
	if doc.Structural != nil {
		res.Structural = *doc.Structural
	}
	if doc.Fetch != nil {
		res.Fetch = *doc.Fetch
	}
	return res, doc.Workload, nil
}
