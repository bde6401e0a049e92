package binio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
)

// Map is a read-only, byte-slice-backed view of one sectioned file —
// typically a memory mapping. One header pass builds a section
// directory (IDs, payload subslices, recorded checksums) without
// touching payload bytes, so opening a multi-gigabyte file costs
// O(section count), not O(file size). Payloads are returned as
// subslices of the backing slice:
//
//   - Section verifies the recorded CRC32 on the first access to that
//     section (exactly once, concurrency-safe) and fails with
//     ErrCorrupt on mismatch.
//   - Raw skips the outer checksum; it is for payloads that embed a
//     self-checksummed format (a nested section stream carrying its
//     own per-section CRCs), where re-hashing the whole payload would
//     defeat lazy decoding, and for O(header) metadata peeks.
//
// Every payload subslice aliases the mapping: it is valid only until
// Close. Decoders that outlive the Map must copy what they keep
// (Reader.Str already does for strings). Accessors must not race with
// Close; callers serialize that transition.
type Map struct {
	data    []byte
	unmap   func([]byte) error
	version uint64
	order   []uint64
	secs    map[uint64]*mapSection
	closed  bool
}

type mapSection struct {
	payload []byte
	crc     uint32
	verify  sync.Once
	err     error
}

// OpenMap maps the file at path and builds its section directory,
// validating magic and version. On platforms without mmap support the
// file is read into memory instead — laziness of decoding is
// preserved, only residency differs. The returned Map holds the
// mapping until Close; a finalizer backstops leaked Maps.
func OpenMap(path string, magic [4]byte, accepted ...uint64) (*Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mmapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("mapping %s: %w", path, err)
	}
	m, err := newMap(data, unmap, magic, accepted...)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, err
	}
	if unmap != nil {
		runtime.SetFinalizer(m, func(m *Map) { m.Close() })
	}
	return m, nil
}

// BytesMap builds a section directory over an in-memory image. Close
// releases nothing; the caller owns data.
func BytesMap(data []byte, magic [4]byte, accepted ...uint64) (*Map, error) {
	return newMap(data, nil, magic, accepted...)
}

func newMap(data []byte, unmap func([]byte) error, magic [4]byte, accepted ...uint64) (*Map, error) {
	dec := NewBytesReader(data)
	dec.Magic(magic)
	version := dec.Version(accepted...)
	m := &Map{data: data, unmap: unmap, version: version, secs: make(map[uint64]*mapSection)}
	for dec.Err() == nil {
		id := dec.Uvarint()
		if dec.Err() != nil || id == EndSection {
			break
		}
		payload := dec.readN(dec.Uvarint())
		sum := dec.readN(4)
		if dec.Err() != nil {
			return nil, fmt.Errorf("%w: section %d truncated: %v", ErrCorrupt, id, dec.Err())
		}
		if _, dup := m.secs[id]; dup {
			dec.Fail("duplicate section %d", id)
			break
		}
		m.secs[id] = &mapSection{payload: payload, crc: binary.LittleEndian.Uint32(sum)}
		m.order = append(m.order, id)
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: %d trailing bytes after end marker", ErrCorrupt, dec.Len())
	}
	return m, nil
}

// VerifyInventory reads the optional section inventory that trails a
// format's header section — a count, then that many section IDs — from
// r and fails unless every inventoried section is in the directory. A
// corrupted section ID would otherwise demote its section to "unknown,
// skipped". Images from before the inventory end where it would start.
func (m *Map) VerifyInventory(r *Reader) error {
	if !r.More() {
		return r.Err()
	}
	n := r.Int()
	if r.Err() == nil && n > 64 {
		r.Fail("absurd inventory size %d", n)
	}
	for i := 0; i < n && r.Err() == nil; i++ {
		if id := r.Uvarint(); r.Err() == nil && !m.Has(id) {
			r.Fail("inventoried section %d missing", id)
		}
	}
	return r.Err()
}

// Version returns the format version read from the header.
func (m *Map) Version() uint64 { return m.version }

// Size returns the total byte size of the backing image.
func (m *Map) Size() int { return len(m.data) }

// Has reports whether a section with the given ID is present.
func (m *Map) Has(id uint64) bool {
	_, ok := m.secs[id]
	return ok
}

// SectionIDs returns the section IDs in file order.
func (m *Map) SectionIDs() []uint64 {
	ids := make([]uint64, len(m.order))
	copy(ids, m.order)
	return ids
}

// Section returns the payload of the section with the given ID,
// verifying its checksum on first access (once; subsequent calls reuse
// the verdict). Missing sections and checksum mismatches fail with
// ErrCorrupt.
func (m *Map) Section(id uint64) ([]byte, error) {
	s, ok := m.secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	s.verify.Do(func() {
		if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
			s.err = fmt.Errorf("%w: section %d checksum mismatch (got %08x, want %08x)", ErrCorrupt, id, got, s.crc)
		}
	})
	if s.err != nil {
		return nil, s.err
	}
	return s.payload, nil
}

// Raw returns the payload of the section with the given ID without
// verifying the outer checksum. Use it for payloads whose embedded
// format carries its own per-section checksums, or for bounded
// metadata peeks where a wrong value is caught by validation.
func (m *Map) Raw(id uint64) ([]byte, bool) {
	s, ok := m.secs[id]
	if !ok {
		return nil, false
	}
	return s.payload, true
}

// Reader returns a Reader over the (checksum-verified)
// payload of the section with the given ID.
func (m *Map) Reader(id uint64) (*Reader, error) {
	payload, err := m.Section(id)
	if err != nil {
		return nil, err
	}
	return NewBytesReader(payload), nil
}

// Close releases the mapping. It is idempotent. After Close every
// previously returned payload subslice is invalid; callers must have
// copied or fully decoded what they keep.
func (m *Map) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	runtime.SetFinalizer(m, nil)
	data := m.data
	m.data, m.secs, m.order = nil, nil, nil
	if m.unmap != nil && data != nil {
		return m.unmap(data)
	}
	return nil
}
