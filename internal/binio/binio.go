// Package binio provides the shared binary-encoding substrate of the
// repo's persistent formats: varint/string/float primitives with sticky
// error handling, plus length-prefixed, CRC-checksummed sections. The
// KB codec (internal/kb), the block-collection codec
// (internal/blocking), and the public index snapshot all speak the same
// section framing:
//
//	uvarint sectionID | uvarint payloadLen | payload | uint32 CRC32(payload)
//
// terminated by a single sectionID 0. Readers skip sections whose ID
// they do not recognize (forward compatibility within a format
// version); any payload whose checksum does not match is rejected
// before a single byte of it is decoded. Writers stream onto an
// io.Writer; decoding always runs over an in-memory image (a file read
// whole, a memory mapping, a section payload) through Map and Reader.
package binio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// EndSection is the section ID that terminates a section stream.
const EndSection = 0

// maxStringBytes bounds a single string; longer length prefixes mark
// corruption.
const maxStringBytes = 1 << 28

// ErrCorrupt is wrapped by every decoding failure: structural damage,
// checksum mismatches, truncation, and out-of-range values all satisfy
// errors.Is(err, binio.ErrCorrupt).
var ErrCorrupt = errors.New("binio: corrupt data")

// Writer encodes primitives onto an io.Writer with a sticky error: the
// first failure latches and subsequent calls are no-ops, so callers
// check Err (or Flush) once at the end.
type Writer struct {
	w   *bufio.Writer
	buf [binary.MaxVarintLen64]byte
	err error
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Err returns the latched error, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains the internal buffer and returns the latched error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Uvarint writes one unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	n := binary.PutUvarint(w.buf[:], v)
	_, w.err = w.w.Write(w.buf[:n])
}

// Int writes a non-negative int as a uvarint.
func (w *Writer) Int(v int) { w.Uvarint(uint64(v)) }

// Bool writes a boolean as one uvarint (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Uvarint(1)
	} else {
		w.Uvarint(0)
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Float writes a float64 as the uvarint of its IEEE-754 bits.
func (w *Writer) Float(f float64) {
	w.Uvarint(math.Float64bits(f))
}

// WriteInt32s writes a uvarint count and then the values as fixed-width
// little-endian words: the layout of an in-memory int32 array, which
// ReadInt32s copies back in one pass.
func WriteInt32s[T ~int32](w *Writer, vs []T) {
	w.Int(len(vs))
	if w.err != nil {
		return
	}
	var word [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(word[:], uint32(v))
		if _, w.err = w.w.Write(word[:]); w.err != nil {
			return
		}
	}
}

// Raw writes bytes verbatim (no length prefix).
func (w *Writer) Raw(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Embed streams a nested format directly into the stream via its
// io.Writer-based encoder, avoiding an intermediate buffer. Inside a
// Section the section framing already delimits the payload, so no
// length prefix is added; the nested format's own magic/versioning
// makes it self-describing.
func (w *Writer) Embed(write func(io.Writer) error) {
	if w.err != nil {
		return
	}
	w.err = write(w.w)
}

// Section buffers the output of fn and emits it as one checksummed
// section with the given non-zero ID.
func (w *Writer) Section(id uint64, fn func(*Writer)) {
	if w.err != nil {
		return
	}
	if id == EndSection {
		w.err = fmt.Errorf("binio: section ID %d is reserved for the end marker", EndSection)
		return
	}
	var payload bytes.Buffer
	sw := NewWriter(&payload)
	fn(sw)
	if err := sw.Flush(); err != nil {
		w.err = err
		return
	}
	w.Uvarint(id)
	w.Uvarint(uint64(payload.Len()))
	w.Raw(payload.Bytes())
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload.Bytes()))
	w.Raw(sum[:])
}

// End terminates the section stream.
func (w *Writer) End() { w.Uvarint(EndSection) }

// Reader is a cursor over an in-memory image that decodes primitives
// with a sticky error: after any failure, subsequent reads return zero
// values; callers check Err once. Reads are bounds checks plus position
// bumps, and bulk reads (section payloads, Frame) return subslices of
// the backing slice instead of copying. Strings still copy (Str builds
// a Go string), so decoded structures never alias the backing slice
// through a string.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewBytesReader returns a Reader over data. Bulk reads return
// subslices of data, so they are valid only as long as data is (in
// particular, until a backing mapping is unmapped).
func NewBytesReader(data []byte) *Reader {
	return &Reader{data: data}
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// Fail latches a corruption error with the given description.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.data[r.pos:])
	if k <= 0 {
		r.Fail("truncated or overlong varint")
		return 0
	}
	r.pos += k
	return v
}

// Int reads a uvarint-encoded non-negative int, failing when it does
// not fit the platform int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if uint64(int(v)) != v || int(v) < 0 {
		r.Fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads a uvarint-encoded boolean.
func (r *Reader) Bool() bool {
	switch v := r.Uvarint(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail("invalid boolean %d", v)
		return false
	}
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.StrBytes()) }

// StrBytes reads a length-prefixed string as a subslice of the backing
// data, without building a string: the allocation-free Str for a
// caller that keeps only some of what it reads.
func (r *Reader) StrBytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxStringBytes {
		r.Fail("absurd string length %d", n)
		return nil
	}
	return r.readN(n)
}

// readN reads exactly n bytes as a capacity-clipped subslice of the
// backing slice. A damaged length prefix is caught by the bounds check
// before any int conversion, so it never provokes an allocation.
func (r *Reader) readN(n uint64) []byte {
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(r.Len()) {
		r.Fail("truncated: %d bytes wanted, %d remain", n, r.Len())
		return nil
	}
	end := r.pos + int(n)
	p := r.data[r.pos:end:end]
	r.pos = end
	return p
}

// Blob reads a length-prefixed byte string as a subslice of the
// backing data: a bulk read bounded only by the payload left, for slabs
// the caller copies once.
func (r *Reader) Blob() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	return r.readN(n)
}

// ReadInt32s reads an array written by WriteInt32s into a fresh slice.
// The claimed count must fit the payload left, so a damaged count fails
// before anything is allocated for it.
func ReadInt32s[T ~int32](r *Reader) []T {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Len()/4) {
		r.Fail("truncated: %d words claimed, %d bytes remain", n, r.Len())
		return nil
	}
	raw := r.readN(4 * n)
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return out
}

// Float reads a float64 written by Writer.Float.
func (r *Reader) Float() float64 {
	return math.Float64frombits(r.Uvarint())
}

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// More reports whether unread bytes remain. It distinguishes "older
// payload that ends here" from "payload with trailing fields" for
// backward-compatible section extensions.
func (r *Reader) More() bool { return r.err == nil && r.Len() > 0 }

// Magic consumes a 4-byte magic number and fails unless it matches.
func (r *Reader) Magic(want [4]byte) {
	got := r.readN(4)
	if r.err != nil {
		r.err = fmt.Errorf("missing magic: %w", r.err)
		return
	}
	if [4]byte(got) != want {
		r.Fail("bad magic %q (want %q)", got, want[:])
	}
}

// Version consumes the format-version uvarint and fails unless it is
// one of the accepted values. It returns the version read so callers
// can dispatch between accepted formats.
func (r *Reader) Version(accepted ...uint64) uint64 {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	for _, a := range accepted {
		if v == a {
			return v
		}
	}
	r.Fail("unsupported version %d", v)
	return 0
}

// Frame consumes one nested section stream (magic | version | sections
// | end marker) at the cursor and returns its bytes — the read-side
// counterpart of Writer.Embed. Only the framing is walked; magic,
// version and checksums are left to the decoder the bytes are handed to.
func (r *Reader) Frame() []byte {
	start := r.pos
	r.readN(4)
	r.Uvarint()
	for r.err == nil {
		id := r.Uvarint()
		if r.err != nil || id == EndSection {
			break
		}
		r.readN(r.Uvarint())
		r.readN(4)
	}
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos:r.pos]
}
