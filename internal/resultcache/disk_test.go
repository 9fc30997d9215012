package resultcache

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestTornRenamedEntryEvicted models the crash window fsync exists to
// close: a file that was renamed into place but whose tail never reached
// the disk (a short-written-then-renamed entry). Such an entry must be
// detected, evicted and reported as a miss — never served.
func TestTornRenamedEntryEvicted(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("torn")
	payload := bytes.Repeat([]byte("stack-bytes"), 100)
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}

	// Rewrite the published name with only a prefix of the full entry —
	// the on-disk state a power loss between rename and writeback leaves
	// behind when nothing is fsynced.
	full, err := os.ReadFile(d.path(k))
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 4, len(entryMagic), len(entryMagic) + 16, len(full) - 1} {
		if err := os.WriteFile(d.path(k), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok, corrupt := d.Get(k)
		if ok || got != nil {
			t.Fatalf("cut=%d: torn entry served (%d bytes)", cut, len(got))
		}
		if !corrupt {
			t.Fatalf("cut=%d: torn entry not reported corrupt", cut)
		}
		if _, err := os.Stat(d.path(k)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cut=%d: torn entry not evicted: %v", cut, err)
		}
		// Heal and verify the slot serves again.
		if err := d.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		if got, ok, _ := d.Get(k); !ok || !bytes.Equal(got, payload) {
			t.Fatalf("cut=%d: healed slot did not serve", cut)
		}
	}
}

// TestPutLeavesNoTempFiles: after a successful Put the entry directory
// holds exactly the published name (the fsync path must not leak its
// temp file or its directory handle).
func TestPutLeavesNoTempFiles(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("clean")
	if err := d.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Dir(d.path(k)))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != k.String() {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("entry dir holds %v, want exactly [%s]", names, k)
	}
}

// diskFrame stores payload through Disk.Put and returns the exact bytes
// the disk tier wrote for it.
func diskFrame(t *testing.T, d *Disk, k Key, payload []byte) []byte {
	t.Helper()
	if err := d.Put(k, payload); err != nil {
		t.Fatal(err)
	}
	frame, err := os.ReadFile(d.path(k))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestDiskFrameVerification: the entry frame Disk.Put writes round-trips
// through readEntry, and readEntry rejects every single-bit flip and every
// truncation of it with ErrEntryCorrupt.
func TestDiskFrameVerification(t *testing.T) {
	d, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("stack payload")
	frame := diskFrame(t, d, key("frame"), payload)
	got, err := readEntry(bytes.NewReader(frame))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v, %q", err, got)
	}

	// Every single-bit flip anywhere in the frame must be rejected.
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(frame)
			bad[i] ^= 1 << bit
			if _, err := readEntry(bytes.NewReader(bad)); !errors.Is(err, ErrEntryCorrupt) {
				t.Fatalf("flip of bit %d at byte %d not rejected: %v", bit, i, err)
			}
		}
	}
	// Truncations too (any cut below the full frame).
	for _, cut := range []int{0, 7, len(entryMagic), len(frame) / 2, len(frame) - 1} {
		if _, err := readEntry(bytes.NewReader(frame[:cut])); !errors.Is(err, ErrEntryCorrupt) {
			t.Fatalf("truncation at %d not rejected: %v", cut, err)
		}
	}
	// The empty payload is a valid entry (distinguish from truncation).
	empty := diskFrame(t, d, key("empty"), nil)
	if got, err := readEntry(bytes.NewReader(empty)); err != nil || len(got) != 0 {
		t.Fatalf("empty payload: %v, %d bytes", err, len(got))
	}
}
