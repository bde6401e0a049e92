package kb

import (
	"context"
	"io"

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
