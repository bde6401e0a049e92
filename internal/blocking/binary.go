package blocking

import (
	"errors"
	"fmt"
	"io"
	"strings"

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
//	section 2 (tokens):   the token postings
//	section 3 (names):    the name postings
//
// A postings section is the in-memory table (see postings) as it is:
// the end offset of each key in the key slab, the slab (the keys,
// ascending, back to back), the end offset of each key's members, and
// the members; the three offset and member arrays are fixed-width
// int32 words (binio.WriteInt32s). A decode is two copies per array,
// then one validating pass. Version 1 stored each key with a varint
// member list; it is refused.
//
// Unknown section IDs are skipped, so a same-version reader tolerates
// future appended sections.
var preparedMagic = [4]byte{'M', 'P', 'S', '1'}

const preparedVersion = 2

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

// WriteBinary serializes the prepared substrate. The tables are
// written as they are held, keys ascending, so the encoding is
// deterministic: the same substrate always produces the same bytes.
func (p *Prepared) WriteBinary(w io.Writer) error {
	bw := binio.NewWriter(w)
	bw.Raw(preparedMagic[:])
	bw.Uvarint(preparedVersion)
	bw.Section(secPrepHeader, func(e *binio.Writer) {
		e.Int(p.n1)
		e.Int(p.nameK)
		e.Int(len(p.tokens.keys))
		e.Int(len(p.names.keys))
	})
	bw.Section(secPrepTokens, p.tokens.write)
	bw.Section(secPrepNames, p.names.write)
	bw.End()
	return bw.Flush()
}

// write encodes one postings table.
func (ps *postings) write(e *binio.Writer) {
	keyEnds := make([]int32, len(ps.keys))
	var slab strings.Builder
	for i, key := range ps.keys {
		slab.WriteString(key)
		keyEnds[i] = int32(slab.Len())
	}
	binio.WriteInt32s(e, keyEnds)
	e.Str(slab.String())
	binio.WriteInt32s(e, ps.ends)
	binio.WriteInt32s(e, ps.members)
}

// ReadPreparedData deserializes a substrate image written by
// Prepared.WriteBinary, verifying the per-section checksums, that the
// keys ascend, and that every member list is non-empty, ascending and
// in range for the recorded KB size. The result shares no memory with
// data.
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
	if p.n1 > 1<<31 {
		return nil, fmt.Errorf("%w: absurd KB size %d", errCorruptPrepared, p.n1)
	}
	readSide := func(id uint64, name string, nKeys int) (postings, error) {
		body, err := m.Reader(id)
		if err != nil {
			return postings{}, fmt.Errorf("%w: %s: %v", errCorruptPrepared, name, err)
		}
		ps := readPostings(body, p.n1, nKeys)
		if err := body.Err(); err != nil {
			return postings{}, fmt.Errorf("%w: %s: %v", errCorruptPrepared, name, err)
		}
		return ps, nil
	}
	if p.tokens, err = readSide(secPrepTokens, "tokens", nTokens); err != nil {
		return nil, err
	}
	if p.names, err = readSide(secPrepNames, "names", nNames); err != nil {
		return nil, err
	}
	return p, nil
}

// readPostings decodes and validates one postings table of nKeys keys
// over a KB of n1 entities; failures latch on dec.
func readPostings(dec *binio.Reader, n1, nKeys int) postings {
	keyEnds := binio.ReadInt32s[int32](dec)
	slab := dec.Blob()
	ends := binio.ReadInt32s[int32](dec)
	members := binio.ReadInt32s[kb.EntityID](dec)
	if dec.More() {
		dec.Fail("%d bytes after the postings", dec.Len())
	}
	if dec.Err() != nil {
		return postings{}
	}
	if len(keyEnds) != nKeys || len(ends) != nKeys {
		dec.Fail("%d key offsets and %d posting offsets for %d keys", len(keyEnds), len(ends), nKeys)
		return postings{}
	}
	if nKeys == 0 {
		if len(slab) > 0 || len(members) > 0 {
			dec.Fail("keyless postings carry %d key bytes and %d members", len(slab), len(members))
		}
		return postings{}
	}
	if int(keyEnds[nKeys-1]) != len(slab) || int(ends[nKeys-1]) != len(members) {
		dec.Fail("offsets do not cover the %d key bytes and %d members", len(slab), len(members))
		return postings{}
	}
	text := string(slab)
	keys := make([]string, nKeys)
	keyStart, start := int32(0), int32(0)
	for i := range keys {
		keyEnd, end := keyEnds[i], ends[i]
		if keyEnd < keyStart || int(keyEnd) > len(text) || end <= start || int(end) > len(members) {
			dec.Fail("key %d: offsets out of order", i)
			return postings{}
		}
		keys[i] = text[keyStart:keyEnd]
		if i > 0 && keys[i] <= keys[i-1] {
			dec.Fail("key %d out of order", i)
			return postings{}
		}
		prev := kb.EntityID(-1)
		for _, id := range members[start:end] {
			if id <= prev || int(id) >= n1 {
				dec.Fail("posting member %d out of order or range [0,%d)", id, n1)
				return postings{}
			}
			prev = id
		}
		keyStart, start = keyEnd, end
	}
	return postings{keys: keys, ends: ends, members: members}
}
