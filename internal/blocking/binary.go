package blocking

import (
	"errors"
	"fmt"
	"io"

	"minoaner/internal/binio"
	"minoaner/internal/kb"
)

// Binary serialization of the prepared one-sided substrate (see
// Prepared). An index snapshot embeds it as its delta substrate, and
// the two-sided block collections are derived from it by a join with
// the other KB's substrate, so they are never stored. The format mirrors the KB
// codec: magic, format version, CRC32-checksummed sections (see
// internal/binio):
//
//	magic "MPS1" | uvarint version | sections | end marker
//
//	section 1 (header):   |E1|, nameK, token-key count, name-key count
//	section 2 (tokens):   per key (ascending): key, members
//	section 3 (names):    per key (ascending): key, members
//
// Unknown section IDs are skipped, so a same-version reader tolerates
// future appended sections.
var preparedMagic = [4]byte{'M', 'P', 'S', '1'}

const preparedVersion = 1

// Section IDs of the prepared-substrate frame.
//
//minoaner:sections writer=WriteBinary reader=ReadPreparedData
const (
	secPrepHeader = 1
	secPrepTokens = 2
	secPrepNames  = 3
)

// errCorruptPrepared wraps structural failures of the prepared decoder.
var errCorruptPrepared = errors.New("blocking: corrupt prepared substrate")

// WriteBinary serializes the prepared substrate. Keys are written in
// ascending order, so the encoding is deterministic: the same substrate
// always produces the same bytes.
func (p *Prepared) WriteBinary(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Raw(preparedMagic[:])
	bw.Uvarint(preparedVersion)
	bw.Section(secPrepHeader, func(e *binio.Writer) {
		e.Int(p.n1)
		e.Int(p.nameK)
		e.Int(len(p.tokens))
		e.Int(len(p.names))
	})
	writeSide := func(id uint64, m map[string][]kb.EntityID) {
		bw.Section(id, func(e *binio.Writer) {
			for _, key := range sortedKeys(m) {
				e.Str(key)
				members := m[key]
				e.Int(len(members))
				for _, id := range members {
					e.Uvarint(uint64(id))
				}
			}
		})
	}
	writeSide(secPrepTokens, p.tokens)
	writeSide(secPrepNames, p.names)
	bw.End()
	return bw.Flush()
}

// ReadPreparedData deserializes a substrate image written by
// Prepared.WriteBinary, verifying the per-section checksums and that
// every member list is ascending and in range for the recorded KB size.
func ReadPreparedData(data []byte) (*Prepared, error) {
	m, err := binio.BytesMap(data, preparedMagic, preparedVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorruptPrepared, err)
	}
	header, err := m.Reader(secPrepHeader)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", errCorruptPrepared, err)
	}
	p := &Prepared{}
	p.n1 = header.Int()
	p.nameK = header.Int()
	nTokens := header.Int()
	nNames := header.Int()
	if err := header.Err(); err != nil {
		return nil, fmt.Errorf("%w: header: %v", errCorruptPrepared, err)
	}
	if nTokens > 1<<31 || nNames > 1<<31 {
		return nil, fmt.Errorf("%w: absurd key counts (%d, %d)", errCorruptPrepared, nTokens, nNames)
	}

	readSide := func(id uint64, name string, nKeys int) (map[string][]kb.EntityID, error) {
		body, err := m.Reader(id)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", errCorruptPrepared, name, err)
		}
		// Preallocations are capped by the payload left: the counts come
		// from the (checksummed but still possibly hostile) header, so a
		// crafted file must fail with ErrCorrupt when its payload runs
		// out, not pre-commit huge allocations. A posting takes at least
		// 2 bytes (key length and member count), a member at least 1.
		postings := make(map[string][]kb.EntityID, min(nKeys, body.Len()/2))
		for i := 0; i < nKeys && body.Err() == nil; i++ {
			key := body.Str()
			n := body.Int()
			if body.Err() != nil {
				break
			}
			if n > p.n1 {
				body.Fail("posting larger than the KB (%d > %d)", n, p.n1)
				break
			}
			members := make([]kb.EntityID, 0, min(n, body.Len()))
			prev := int64(-1)
			for j := 0; j < n && body.Err() == nil; j++ {
				id := body.Uvarint()
				if id >= uint64(p.n1) || int64(id) <= prev {
					body.Fail("posting member %d out of order or range [0,%d)", id, p.n1)
					break
				}
				prev = int64(id)
				members = append(members, kb.EntityID(id))
			}
			postings[key] = members
		}
		if err := body.Err(); err != nil {
			return nil, fmt.Errorf("%w: %s: %v", errCorruptPrepared, name, err)
		}
		return postings, nil
	}
	if p.tokens, err = readSide(secPrepTokens, "tokens", nTokens); err != nil {
		return nil, err
	}
	if p.names, err = readSide(secPrepNames, "names", nNames); err != nil {
		return nil, err
	}
	return p, nil
}
