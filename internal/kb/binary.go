package kb

import (
	"errors"
	"io"

	"minoaner/internal/binio"
	"minoaner/internal/rdf"
)

// Binary serialization of a built KB. Loading a large N-Triples dump
// re-tokenizes every literal and re-derives all statistics; the binary
// format stores the assembled structure instead, making reload
// I/O-bound. The format is versioned and self-describing. Version 2
// frames the payload into CRC32-checksummed sections (see
// internal/binio), so corruption — a flipped bit anywhere in a cached
// file — is detected before any damaged data is decoded. It is the
// only version read; any other is rejected as corrupt:
//
//	magic "MKB1" | uvarint version | sections | end marker
//
//	section 1 (header):     name, triple count
//	section 2 (predicates): predicate dictionary
//	section 3 (stats):      attribute and relation statistics
//	section 4 (entities):   per entity: URI, attrs, out-edges, types, tokens
//	section 5 (sources):    two zero varints, interned term table, and
//	                        sorted triple refs — the retained source
//	                        triples that make the KB mutable (see
//	                        Store). Written only when the KB retains
//	                        them; optional on read. The zeros are the
//	                        minimum token length and stopword count of
//	                        the tokenizer options earlier builds could
//	                        set; an image with any other value was not
//	                        tokenized the way this build tokenizes, and
//	                        is rejected as corrupt.
//
// Derived structures (in-edges, EF, URI index, type/vocab sets) are
// rebuilt on load — they are redundant with the stored data. Unknown
// section IDs are skipped, so a same-version reader tolerates future
// appended sections; in particular, readers predating the sources
// section load newer KBs fine (they just are not mutable).

var binaryMagic = [4]byte{'M', 'K', 'B', '1'}

const binaryVersion = 2

// Section IDs of the version-2 frame.
//
//minoaner:sections writer=WriteBinary reader=OpenBinary,decodeRest,decodeSources
const (
	secHeader   = 1
	secPreds    = 2
	secStats    = 3
	secEntities = 4
	secSources  = 5
)

// errCorrupt wraps structural failures of the binary decoder.
var errCorrupt = errors.New("kb: corrupt binary KB")

// WriteBinary serializes the KB in the binary format (version 2,
// checksummed sections). The encoding is deterministic: the same KB
// always produces the same bytes.
func (kb *KB) WriteBinary(w io.Writer) error {
	if err := kb.Materialize(); err != nil {
		return err
	}
	if err := kb.MaterializeSources(); err != nil {
		return err
	}
	bw := binio.NewWriter(w)
	bw.Raw(binaryMagic[:])
	bw.Uvarint(binaryVersion)
	sections := []uint64{secHeader, secPreds, secStats, secEntities}
	if kb.src != nil {
		sections = append(sections, secSources)
	}
	bw.Section(secHeader, func(e *binio.Writer) {
		e.Str(kb.name)
		e.Int(kb.numTriples)
		// Trailing section inventory: the CRC-protected header names
		// every section written, so a corrupted section ID — which
		// would otherwise just be "skipped as unknown" — is detected
		// as a missing inventoried section. Pre-inventory readers
		// ignore the trailing bytes.
		e.Int(len(sections))
		for _, id := range sections {
			e.Uvarint(id)
		}
	})
	bw.Section(secPreds, kb.writePreds)
	bw.Section(secStats, kb.writeStats)
	bw.Section(secEntities, kb.writeEntities)
	if kb.src != nil {
		bw.Section(secSources, kb.writeSources)
	}
	bw.End()
	return bw.Flush()
}

func (kb *KB) writeSources(e *binio.Writer) {
	src := kb.src
	e.Int(0) // minimum token length
	e.Int(0) // stopword count
	e.Int(len(src.terms))
	for _, t := range src.terms {
		e.Uvarint(uint64(t.Kind))
		e.Str(t.Value)
		e.Str(t.Lang)
		e.Str(t.Datatype)
	}
	e.Int(len(src.refs))
	for _, r := range src.refs {
		e.Uvarint(uint64(r.s))
		e.Uvarint(uint64(r.p))
		e.Uvarint(uint64(r.o))
	}
}

func (kb *KB) writePreds(e *binio.Writer) {
	e.Int(len(kb.preds))
	for _, p := range kb.preds {
		e.Str(p)
	}
}

func (kb *KB) writeStats(e *binio.Writer) {
	writeSide := func(m map[int32]*PredStat) {
		e.Int(len(m))
		for pid := int32(0); pid < int32(len(kb.preds)); pid++ {
			st, ok := m[pid]
			if !ok {
				continue
			}
			e.Uvarint(uint64(pid))
			e.Int(st.Entities)
			e.Int(st.Distinct)
			e.Float(st.Importance)
		}
	}
	writeSide(kb.attrStats)
	writeSide(kb.relStats)
}

func (kb *KB) writeEntities(e *binio.Writer) {
	e.Int(len(kb.entities))
	for i := range kb.entities {
		ent := &kb.entities[i]
		e.Str(ent.URI)
		e.Int(len(ent.Attrs))
		for _, av := range ent.Attrs {
			e.Uvarint(uint64(av.Pred))
			e.Str(av.Value)
		}
		e.Int(len(ent.Out))
		for _, edge := range ent.Out {
			e.Uvarint(uint64(edge.Pred))
			e.Uvarint(uint64(edge.Target))
		}
		e.Int(len(ent.Types))
		for _, t := range ent.Types {
			e.Str(t)
		}
		e.Int(len(ent.Tokens))
		for _, t := range ent.Tokens {
			e.Str(t)
		}
	}
}

// ReadBinary decodes a binary KB image written by WriteBinary in full,
// through OpenBinary's tiers, each verifying its section checksums
// before decoding. The result references nothing in data.
func ReadBinary(data []byte) (*KB, error) {
	kb, err := OpenBinary(data)
	if err != nil {
		return nil, err
	}
	if err := kb.Detach(); err != nil {
		return nil, err
	}
	return kb, nil
}

func newEmptyKB() *KB {
	return &KB{
		uriIndex:  make(map[string]EntityID),
		predIndex: make(map[string]int32),
		ef:        make(map[string]int32),
		attrStats: make(map[int32]*PredStat),
		relStats:  make(map[int32]*PredStat),
		typeSet:   make(map[string]struct{}),
		vocabSet:  make(map[string]struct{}),
	}
}

func (kb *KB) readSources(dec *binio.Reader) {
	src := &Sources{}
	if minLen, nStop := dec.Uvarint(), dec.Uvarint(); dec.Err() == nil && (minLen != 0 || nStop != 0) {
		dec.Fail("tokenizer options (minimum length %d, %d stopwords) are not the defaults", minLen, nStop)
		return
	}
	nTerms := dec.Uvarint()
	if dec.Err() == nil && nTerms > 1<<31 {
		dec.Fail("absurd term count %d", nTerms)
		return
	}
	// A term takes at least 4 bytes and a ref 3: reserve no more than
	// the payload can hold.
	src.terms = make([]rdf.Term, 0, min64(nTerms, dec.Len()/4))
	for i := uint64(0); i < nTerms && dec.Err() == nil; i++ {
		var t rdf.Term
		t.Kind = rdf.TermKind(dec.Uvarint())
		t.Value = dec.Str()
		t.Lang = dec.Str()
		t.Datatype = dec.Str()
		src.terms = append(src.terms, t)
	}
	nRefs := dec.Uvarint()
	if dec.Err() == nil && nRefs > 1<<33 {
		dec.Fail("absurd ref count %d", nRefs)
		return
	}
	src.refs = make([]tripleRef, 0, min64(nRefs, dec.Len()/3))
	for i := uint64(0); i < nRefs && dec.Err() == nil; i++ {
		var r tripleRef
		r.s = int32(dec.Uvarint())
		r.p = int32(dec.Uvarint())
		r.o = int32(dec.Uvarint())
		src.refs = append(src.refs, r)
	}
	if dec.Err() != nil {
		return
	}
	if err := validateSources(src); err != nil {
		dec.Fail("%v", err)
		return
	}
	kb.src = src
}

func (kb *KB) readHeader(dec *binio.Reader) {
	kb.name = dec.Str()
	kb.numTriples = dec.Int()
}

func (kb *KB) readPreds(dec *binio.Reader) {
	n := dec.Uvarint()
	if dec.Err() == nil && n > 1<<24 {
		dec.Fail("absurd predicate count %d", n)
		return
	}
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		p := dec.Str()
		kb.predIndex[p] = int32(len(kb.preds))
		kb.preds = append(kb.preds, p)
		kb.vocabSet[namespaceOf(p)] = struct{}{}
	}
}

func (kb *KB) readStats(dec *binio.Reader) {
	readSide := func(m map[int32]*PredStat) {
		n := dec.Uvarint()
		for i := uint64(0); i < n && dec.Err() == nil; i++ {
			pid := int32(dec.Uvarint())
			st := &PredStat{Pred: pid}
			st.Entities = dec.Int()
			st.Distinct = dec.Int()
			st.Importance = dec.Float()
			if pid < 0 || int(pid) >= len(kb.preds) {
				dec.Fail("predicate id %d out of range", pid)
				return
			}
			m[pid] = st
		}
	}
	readSide(kb.attrStats)
	readSide(kb.relStats)
}

// rebuildDerived reconstructs in-edges, token EF counts, and the vocab
// contribution of rdf:type from the decoded sections.
func (kb *KB) rebuildDerived() {
	if len(kb.typeSet) > 0 {
		kb.vocabSet[namespaceOf(RDFType)] = struct{}{}
	}
	for i := range kb.entities {
		e := &kb.entities[i]
		for _, edge := range e.Out {
			kb.entities[edge.Target].In = append(kb.entities[edge.Target].In, Edge{Pred: edge.Pred, Target: EntityID(i)})
		}
		kb.totalTokens += len(e.Tokens)
		for _, tok := range e.Tokens {
			kb.ef[tok]++
		}
	}
}

func min64(a uint64, b int) int {
	if a < uint64(b) {
		return int(a)
	}
	return b
}
