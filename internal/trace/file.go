package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace file format. Traces captured from real programs (e.g. via a
// Pin/DynamoRIO tool) can be converted into this format and replayed through
// the simulator; conversely, the synthetic generators can be materialized to
// disk for exact sharing between experiments.
//
// Layout: an 8-byte magic+version header, then one fixed-size 64-byte record
// per uop, little-endian:
//
//	offset size field
//	0      8    Seq
//	8      8    PC
//	16     8    Addr
//	24     8    Target
//	32     8    Src[0]
//	40     8    Src[1]
//	48     8    Src[2]
//	56     1    Op
//	57     1    flags (bit0 Taken, bit1 WrongPath)
//	58     1    VecLanes
//	59     1    MaskedLanes
//	60     1    MicrocodeCycles
//	61     3    reserved (zero)

// fileMagic identifies trace files ("PSTRC" + version 1).
var fileMagic = [8]byte{'P', 'S', 'T', 'R', 'C', 0, 0, 1}

const recordSize = 64

const (
	flagTaken     = 1 << 0
	flagWrongPath = 1 << 1
)

// ErrTruncated marks a trace file whose length is not 8 + 64·n: the stream
// ended inside a record (or inside the header). A truncated file means the
// capture or a copy was cut short — the complete records before the tear are
// bit-exact, but the trace as a whole must not be mistaken for a shorter
// clean one. Test with errors.Is(err, ErrTruncated).
var ErrTruncated = errors.New("truncated trace (partial record)")

// Writer streams uops into a trace file. Write errors are sticky: the first
// failure is retained and re-reported by every subsequent Write and by
// Flush, so a caller that only checks Flush (or Copy's single error return)
// still observes a mid-stream failure.
type Writer struct {
	w     *bufio.Writer
	buf   [recordSize]byte
	count uint64
	err   error
}

// NewWriter writes the header and returns a Writer. Call Flush when done.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(fileMagic[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one uop record.
func (tw *Writer) Write(u *Uop) error {
	if tw.err != nil {
		return tw.err
	}
	b := tw.buf[:]
	binary.LittleEndian.PutUint64(b[0:], u.Seq)
	binary.LittleEndian.PutUint64(b[8:], u.PC)
	binary.LittleEndian.PutUint64(b[16:], u.Addr)
	binary.LittleEndian.PutUint64(b[24:], u.Target)
	binary.LittleEndian.PutUint64(b[32:], u.Src[0])
	binary.LittleEndian.PutUint64(b[40:], u.Src[1])
	binary.LittleEndian.PutUint64(b[48:], u.Src[2])
	b[56] = byte(u.Op)
	var flags byte
	if u.Taken {
		flags |= flagTaken
	}
	if u.WrongPath {
		flags |= flagWrongPath
	}
	b[57] = flags
	b[58] = u.VecLanes
	b[59] = u.MaskedLanes
	b[60] = u.MicrocodeCycles
	b[61], b[62], b[63] = 0, 0, 0
	if _, err := tw.w.Write(b); err != nil {
		tw.err = fmt.Errorf("trace: writing record %d: %w", tw.count, err)
		return tw.err
	}
	tw.count++
	return nil
}

// Count returns the number of records written.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush drains buffered records to the underlying writer. It returns the
// first deferred write error: a failure bufio absorbed during an earlier
// Write (or a previous Flush) is reported here even if the final drain
// succeeds, so "Flush returned nil" really means every record landed.
func (tw *Writer) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = fmt.Errorf("trace: flushing after record %d: %w", tw.count, err)
		return tw.err
	}
	return nil
}

// FileReader replays a trace file; it implements Reader and BatchReader.
type FileReader struct {
	r    *bufio.Reader
	buf  [recordSize]byte
	bulk []byte // reusable ReadBatch staging buffer
	err  error
	seen uint64
}

// NewFileReader validates the header and returns a streaming reader.
func NewFileReader(r io.Reader) (*FileReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			// Shorter than the 8-byte header: a torn copy, not a different
			// format.
			return nil, fmt.Errorf("trace: reading header: %w", ErrTruncated)
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a perfstacks trace or wrong version)", hdr[:5])
	}
	return &FileReader{r: br}, nil
}

// decodeRecord unpacks one fixed-size record into u.
func decodeRecord(b []byte, u *Uop) {
	u.Seq = binary.LittleEndian.Uint64(b[0:])
	u.PC = binary.LittleEndian.Uint64(b[8:])
	u.Addr = binary.LittleEndian.Uint64(b[16:])
	u.Target = binary.LittleEndian.Uint64(b[24:])
	u.Src[0] = binary.LittleEndian.Uint64(b[32:])
	u.Src[1] = binary.LittleEndian.Uint64(b[40:])
	u.Src[2] = binary.LittleEndian.Uint64(b[48:])
	u.Op = Op(b[56])
	u.Taken = b[57]&flagTaken != 0
	u.WrongPath = b[57]&flagWrongPath != 0
	u.VecLanes = b[58]
	u.MaskedLanes = b[59]
	u.MicrocodeCycles = b[60]
}

// Next implements Reader. The first read error (including a truncated final
// record) ends the stream; inspect Err afterwards.
func (fr *FileReader) Next() (Uop, bool) {
	if fr.err != nil {
		return Uop{}, false
	}
	if _, err := io.ReadFull(fr.r, fr.buf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			// Partial final record: file length is not 8 + 64·n.
			fr.err = fmt.Errorf("trace: record %d: %w", fr.seen, ErrTruncated)
		} else if err != io.EOF {
			fr.err = fmt.Errorf("trace: record %d: %w", fr.seen, err)
		}
		return Uop{}, false
	}
	var u Uop
	decodeRecord(fr.buf[:], &u)
	fr.seen++
	return u, true
}

// ReadBatch implements BatchReader: one bulk read covers the whole batch,
// then records decode out of the staging buffer. A truncated tail record
// sets Err exactly as Next would; the complete records before it are still
// delivered.
func (fr *FileReader) ReadBatch(dst []Uop) int {
	if fr.err != nil || len(dst) == 0 {
		return 0
	}
	want := len(dst) * recordSize
	if cap(fr.bulk) < want {
		fr.bulk = make([]byte, want)
	}
	got, err := io.ReadFull(fr.r, fr.bulk[:want])
	n := got / recordSize
	for i := 0; i < n; i++ {
		decodeRecord(fr.bulk[i*recordSize:], &dst[i])
	}
	fr.seen += uint64(n)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		fr.err = fmt.Errorf("trace: record %d: %w", fr.seen, err)
	} else if got%recordSize != 0 {
		// Partial trailing record: the same truncation Next reports.
		fr.err = fmt.Errorf("trace: record %d: %w", fr.seen, ErrTruncated)
	}
	return n
}

// Err reports a malformed-file error encountered during streaming (nil on a
// clean end of file).
func (fr *FileReader) Err() error { return fr.err }

// Count returns the number of records read so far.
func (fr *FileReader) Count() uint64 { return fr.seen }

// Copy materializes up to n uops from r into w (n == 0 copies everything r
// yields). It returns the number of uops copied. A source reader that
// faulted mid-stream (ErrOf) poisons the copy: the error is returned so a
// truncated input cannot silently become a shorter, clean-looking output.
func Copy(w *Writer, r Reader, n uint64) (uint64, error) {
	var copied uint64
	for n == 0 || copied < n {
		u, ok := r.Next()
		if !ok {
			break
		}
		if err := w.Write(&u); err != nil {
			return copied, err
		}
		copied++
	}
	if err := ErrOf(r); err != nil {
		return copied, fmt.Errorf("trace: copy source failed after %d uops: %w", copied, err)
	}
	return copied, w.Flush()
}
