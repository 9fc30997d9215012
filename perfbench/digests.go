package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// expectedJSON holds the result digests recorded from the program the
// benchmark was written against (perfbench -record). Every simulation's
// encoded result and every simd response body is checked against it, so a
// refactor that claims byte-identical results is checked on these inputs.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// digestFile is the layout of testdata/expected.json.
type digestFile struct {
	// Results maps a result label (workload/pool index/simulation) to the
	// SHA-256 of its encoded result or response body, in hex.
	Results map[string]string `json:"results"`
	// Misses holds the simd-mix fresh-key pool's digests by pool index,
	// each the first 16 hex digits of the body's SHA-256.
	Misses []string `json:"misses"`
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// missDigestLen is the hex length of a stored miss-pool digest prefix.
const missDigestLen = 16

// digests checks payloads against the recorded digests or, in record
// mode, records them. It is safe for concurrent use.
type digests struct {
	mu     sync.Mutex
	record bool
	file   digestFile
}

func loadDigests() (*digests, error) {
	d := &digests{}
	if err := json.Unmarshal(expectedJSON, &d.file); err != nil {
		return nil, fmt.Errorf("parsing expected digests: %w", err)
	}
	return d, nil
}

func newRecorder() *digests {
	return &digests{record: true, file: digestFile{Results: map[string]string{}}}
}

// check compares payload with the digest recorded under label; it reports
// an error for a mismatch or a label with no recording.
func (d *digests) check(label string, payload []byte) error {
	got := digestOf(payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.record {
		d.file.Results[label] = got
		return nil
	}
	want, ok := d.file.Results[label]
	switch {
	case !ok:
		return fmt.Errorf("%s: no recorded digest", label)
	case want != got:
		return fmt.Errorf("%s: digest %s, recorded %s", label, got[:16], want[:16])
	}
	return nil
}

// checkMiss compares a fresh-key body with pool entry j; known is false
// when j lies beyond the recorded pool.
func (d *digests) checkMiss(j int, payload []byte) (known bool, err error) {
	got := digestOf(payload)[:missDigestLen]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.record {
		for len(d.file.Misses) <= j {
			d.file.Misses = append(d.file.Misses, "")
		}
		d.file.Misses[j] = got
		return true, nil
	}
	if j >= len(d.file.Misses) {
		return false, nil
	}
	if want := d.file.Misses[j]; want != got {
		return true, fmt.Errorf("miss %d: digest %s, recorded %s", j, got, want)
	}
	return true, nil
}

// write stores the recorded digests as indented JSON (encoding/json sorts
// the map keys, so the file is stable).
func (d *digests) write(path string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, m := range d.file.Misses {
		if m == "" {
			return fmt.Errorf("miss pool entry %d was not recorded", i)
		}
	}
	b, err := json.MarshalIndent(d.file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
