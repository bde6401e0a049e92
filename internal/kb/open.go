package kb

import (
	"bytes"
	"fmt"
	"sync"

	"minoaner/internal/binio"
)

// Lazy (mapped) decoding of the binary KB format. OpenBinary splits the
// image into two tiers:
//
//   - URI tier, decoded at open: entity count and URIs — everything the
//     infallible, lock-free read path (Len, URI, Name, NumTriples)
//     touches. The open verifies the header's and the URI section's
//     checksums and copies the URI slab out in one piece; it never
//     reads, let alone hashes, the entity records. The URI index behind
//     Lookup is built on the first Lookup.
//   - Full tier, decoded on first demand: predicates, statistics,
//     per-entity attributes/edges/types/tokens, and derived structures.
//     The predicates', statistics' and entities' checksums verify on
//     that first access, so every fallible operation sees verified data.
//
// Retained sources decode separately (they are only needed to mutate),
// also once, on first demand. All decoded values copy out of the
// backing slice (strings are built, not aliased), so once Materialize
// succeeds the KB no longer references the mapping.
//
// Filling the full tier writes only fields and maps the URI tier never
// reads (Entity.Attrs/Out/Types/Tokens are distinct memory locations
// from Entity.URI), so concurrent URI-tier readers race with nothing;
// full-tier readers synchronize through the sync.Once.

// kbLazy is the undecoded remainder of a mapped KB image.
type kbLazy struct {
	m      *binio.Map // nested section directory over the MKB1 image
	hasSrc bool

	once sync.Once // full tier
	err  error

	srcOnce sync.Once // sources tier
	srcErr  error

	uriOnce sync.Once // the URI index, on the first Lookup
}

// OpenBinary decodes a binary KB image lazily: the URI tier (entity
// URIs) is built now, everything else on first demand via the
// full-tier accessors or Materialize. The image must stay valid until
// Materialize has succeeded (or the KB is dropped).
func OpenBinary(data []byte) (*KB, error) {
	m, err := binio.BytesMap(data, binaryMagic, binaryVersion)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb := newEmptyKB()
	hdr, err := m.Reader(secHeader)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.readHeader(hdr)
	if err := m.VerifyInventory(hdr); err != nil {
		return nil, fmt.Errorf("%w: header inventory: %v", errCorrupt, err)
	}
	for _, id := range []uint64{secPreds, secStats, secEntities} {
		if !m.Has(id) {
			return nil, fmt.Errorf("%w: missing section %d", errCorrupt, id)
		}
	}
	// The URIs are served from the open on, so they are read from the
	// checksum-verified payload: a damaged URI fails the open instead
	// of reaching a caller.
	uris, err := m.Reader(secURIs)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.readURIs(uris)
	if err := uris.Err(); err != nil {
		return nil, fmt.Errorf("%w: uris: %v", errCorrupt, err)
	}
	kb.lazy = &kbLazy{m: m, hasSrc: m.Has(secSources)}
	return kb, nil
}

// readURIs builds the entity roster from the URI section: one copy of
// the slab, and each entity's URI a substring of it.
func (kb *KB) readURIs(dec *binio.Reader) {
	ends := binio.ReadInt32s[int32](dec)
	slab := dec.Blob()
	if dec.More() {
		dec.Fail("%d bytes after the URI slab", dec.Len())
	}
	if dec.Err() != nil {
		return
	}
	text := string(slab)
	kb.entities = make([]Entity, len(ends))
	start := int32(0)
	for i, end := range ends {
		if end < start || int(end) > len(text) {
			dec.Fail("URI %d ends at %d, outside [%d,%d]", i, end, start, len(text))
			return
		}
		kb.entities[i].URI = text[start:end]
		start = end
	}
	if int(start) != len(text) {
		dec.Fail("URIs cover %d of the slab's %d bytes", start, len(text))
	}
}

// materialize decodes the full tier once (idempotent, concurrency-safe)
// and returns its verdict. It is the guard the full-tier accessors call;
// on a fully decoded or eagerly loaded KB it is a nil check.
func (kb *KB) materialize() error {
	l := kb.lazy
	if l == nil {
		return nil
	}
	l.once.Do(func() { l.err = kb.decodeRest() })
	return l.err
}

// materializeSrc decodes the retained sources once, if present.
func (kb *KB) materializeSrc() error {
	l := kb.lazy
	if l == nil || !l.hasSrc {
		return nil
	}
	l.srcOnce.Do(func() { l.srcErr = kb.decodeSources() })
	return l.srcErr
}

// Materialize forces the full tier — everything except retained
// sources, which only mutation needs (see MaterializeSources).
func (kb *KB) Materialize() error { return kb.materialize() }

// MaterializeSources forces the retained-sources tier (a no-op when
// the KB has none). After both Materialize and MaterializeSources
// return nil the KB reads nothing from the backing image, so the
// mapping may be released.
func (kb *KB) MaterializeSources() error { return kb.materializeSrc() }

// Detach forces every tier, then drops the KB's reference to its
// backing image so the image can be freed. Unlike Materialize it is not
// safe for concurrent use: call it only while no other goroutine can
// reach the KB.
func (kb *KB) Detach() error {
	if err := kb.Materialize(); err != nil {
		return err
	}
	if err := kb.MaterializeSources(); err != nil {
		return err
	}
	kb.uris()
	kb.lazy = nil
	return nil
}

// BinaryInfo is InspectBinary's summary of a binary KB image.
type BinaryInfo struct {
	Name       string
	Entities   int
	Triples    int
	HasSources bool
}

// InspectBinary summarizes a binary KB image without decoding its
// bulk: it reads the checksummed header plus the entity count,
// O(header) work however large the KB.
func InspectBinary(data []byte) (BinaryInfo, error) {
	m, err := binio.BytesMap(data, binaryMagic, binaryVersion)
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	hdr, err := m.Reader(secHeader)
	if err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: %v", errCorrupt, err)
	}
	info := BinaryInfo{Name: hdr.Str(), Triples: hdr.Int(), HasSources: m.Has(secSources)}
	if err := hdr.Err(); err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: header: %v", errCorrupt, err)
	}
	// The entity count is the URI section's leading varint; read it
	// from the raw payload — verifying the section's checksum would mean
	// hashing every URI, which inspect avoids.
	raw, ok := m.Raw(secURIs)
	if !ok {
		return BinaryInfo{}, fmt.Errorf("%w: missing section %d", errCorrupt, secURIs)
	}
	ents := binio.NewBytesReader(raw)
	info.Entities = int(ents.Uvarint())
	if err := ents.Err(); err != nil {
		return BinaryInfo{}, fmt.Errorf("%w: uris: %v", errCorrupt, err)
	}
	return info, nil
}

func (kb *KB) decodeRest() error {
	m := kb.lazy.m
	for _, id := range []uint64{secPreds, secStats} {
		body, err := m.Reader(id)
		if err != nil {
			return fmt.Errorf("%w: %v", errCorrupt, err)
		}
		switch id {
		case secPreds:
			kb.readPreds(body)
		case secStats:
			kb.readStats(body)
		}
		if err := body.Err(); err != nil {
			return fmt.Errorf("%w: section %d: %v", errCorrupt, id, err)
		}
	}
	ents, err := m.Reader(secEntities)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.fillEntities(ents)
	if err := ents.Err(); err != nil {
		return fmt.Errorf("%w: entities: %v", errCorrupt, err)
	}
	kb.rebuildDerived()
	return nil
}

func (kb *KB) decodeSources() error {
	body, err := kb.lazy.m.Reader(secSources)
	if err != nil {
		return fmt.Errorf("%w: %v", errCorrupt, err)
	}
	kb.readSources(body)
	if err := body.Err(); err != nil {
		return fmt.Errorf("%w: sources: %v", errCorrupt, err)
	}
	return nil
}

// fillEntities decodes the entities section (verified on this first
// access) into the roster the open built from the URI section, filling
// attributes, edges, types, and tokens in place and validating
// predicates and edge targets.
func (kb *KB) fillEntities(dec *binio.Reader) {
	nEnt := dec.Uvarint()
	if dec.Err() == nil && int(nEnt) != len(kb.entities) {
		dec.Fail("entity count %d does not match the URI section's (%d)", nEnt, len(kb.entities))
		return
	}
	bags := newTokenizer()
	for i := 0; i < int(nEnt) && dec.Err() == nil; i++ {
		e := &kb.entities[i]
		nAttrs := dec.Uvarint()
		for a := uint64(0); a < nAttrs && dec.Err() == nil; a++ {
			pred := int32(dec.Uvarint())
			val := dec.Str()
			if pred < 0 || int(pred) >= len(kb.preds) {
				dec.Fail("attribute predicate out of range")
				break
			}
			e.Attrs = append(e.Attrs, AttrValue{Pred: pred, Value: val})
		}
		nOut := dec.Uvarint()
		for o := uint64(0); o < nOut && dec.Err() == nil; o++ {
			pred := int32(dec.Uvarint())
			tgt := EntityID(dec.Uvarint())
			if pred < 0 || int(pred) >= len(kb.preds) || uint64(tgt) >= nEnt {
				dec.Fail("edge out of range")
				break
			}
			e.Out = append(e.Out, Edge{Pred: pred, Target: tgt})
		}
		nTypes := dec.Uvarint()
		for x := uint64(0); x < nTypes && dec.Err() == nil; x++ {
			typ := dec.Str()
			e.Types = append(e.Types, typ)
			kb.typeSet[typ] = struct{}{}
		}
		nTokens := dec.Uvarint()
		var last []byte
		for x := uint64(0); x < nTokens && dec.Err() == nil; x++ {
			tok := dec.StrBytes()
			if x > 0 && bytes.Compare(last, tok) >= 0 {
				dec.Fail("token bag not ascending")
				break
			}
			last = tok
			bags.addDecoded(tok)
		}
		bags.endBag()
	}
	if dec.Err() != nil {
		return
	}
	// The bags' tokens, ascending, are the vocabulary; a bag read in
	// ascending order translates into ascending IDs.
	m := mergeVocab(nil, nil, []*tokenizer{bags})
	kb.vocab = m.vocab
	bags.writeBags(m.local[0], make([]int32, len(bags.ids)), func(b int, bag []int32) { kb.entities[b].Tokens = bag })
}
