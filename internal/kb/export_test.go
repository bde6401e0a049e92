package kb

import (
	"context"
	"io"
	"strings"
	"unsafe"

	"minoaner/internal/rdf"
)

// IngestBlocks is AddFromReader at a test-chosen block size and line
// limit.
func (b *Builder) IngestBlocks(ctx context.Context, r io.Reader, blockSize, maxLine int, lenient bool) (int, error) {
	return b.ingest(ctx, r, blockSize, maxLine, lenient)
}

// IngestBlockBytes is the production block size.
const IngestBlockBytes = ingestBlockBytes

// Interned exposes the builder's term table and recorded triples (as
// term-ID triplets) for differential tests.
func (b *Builder) Interned() ([]rdf.Term, [][3]int32) {
	refs := make([][3]int32, len(b.triples))
	for i, r := range b.triples {
		refs[i] = [3]int32{r.s, r.p, r.o}
	}
	return b.terms, refs
}

// SetTermHash replaces the hash function of the builder's term table,
// which must still be empty.
func (b *Builder) SetTermHash(hash func(rdf.Term) uint64) { b.hash = hash }

// IngestRegrows ingests doc as AddFromReader does, block by block in
// file order on the caller's goroutine, and reports whether the term
// table's terms or slots were reallocated after the reservation the
// first block made.
func (b *Builder) IngestRegrows(doc string) (bool, error) {
	sc := rdf.NewBlockScanner(strings.NewReader(doc), ingestBlockBytes, rdf.DefaultMaxLineBytes)
	p := newBlockParser(rdf.DefaultMaxLineBytes, false, b.hash)
	var terms *rdf.Term
	var slots int
	for {
		blk, readErr := sc.Next()
		pb := p.parse(blk)
		if pb.err != nil {
			return false, pb.err
		}
		if terms == nil {
			b.reserveFor(len(doc), pb)
			terms, slots = unsafe.SliceData(b.terms), len(b.slots)
		}
		b.merge(pb)
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return false, readErr
		}
	}
	return unsafe.SliceData(b.terms) != terms || len(b.slots) != slots, nil
}
