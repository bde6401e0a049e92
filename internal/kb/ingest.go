package kb

import (
	"context"
	"io"
	"os"
	"slices"
	"strings"
	"sync"

	"minoaner/internal/parallel"
	"minoaner/internal/rdf"
)

// ingestBlockBytes is the size of the line-aligned blocks an N-Triples
// stream is parsed in: large enough that a block's term table absorbs
// most repeats before the serial merge sees them, small enough that a
// handful in flight stay cheap.
const ingestBlockBytes = 512 << 10

// AddFromReader streams an N-Triples document into the builder without
// materializing a triple slice. The calling goroutine cuts the stream
// into line-aligned blocks; worker goroutines (SetWorkers) parse each
// block into a block-local term table; the caller merges the tables in
// file order, which assigns every term the ID a line-by-line Add loop
// would have — the builder's state is identical at any worker count. A
// document that ends inside its first block is parsed on the calling
// goroutine.
//
// Strict parsing stops at the first malformed line of the document with
// its *rdf.ParseError; lenient parsing skips malformed (and oversize)
// lines and returns how many. A read error of r is reported either way,
// behind the lines that preceded it.
func (b *Builder) AddFromReader(ctx context.Context, r io.Reader, lenient bool) (skipped int, err error) {
	return b.ingest(ctx, r, ingestBlockBytes, rdf.DefaultMaxLineBytes, lenient)
}

// ingest is AddFromReader with the block size and line limit spelled
// out, which the tests vary.
func (b *Builder) ingest(ctx context.Context, r io.Reader, blockSize, maxLine int, lenient bool) (skipped int, err error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	size := inputSize(r)
	sc := rdf.NewBlockScanner(r, blockSize, maxLine)
	blk, readErr := sc.Next()
	if readErr != nil {
		// The whole input is one block: no goroutines to feed, and its
		// parse says exactly how much is coming.
		pb := newBlockParser(maxLine, lenient, b.hash).parse(blk)
		b.makeRoom(len(pb.terms), len(pb.refs))
		b.merge(pb)
		if pb.err == nil && readErr != io.EOF {
			pb.err = readErr
		}
		return pb.skipped, pb.err
	}

	workers := parallel.Workers(b.workers)
	hash := b.hash // the workers' tables hash as the builder's does
	// Two blocks per worker may be outstanding, so a worker that
	// finishes while the caller is busy merging finds the next one
	// queued; the queue has room for all of them and a send never
	// blocks.
	jobs := make(chan blockJob, 2*workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := newBlockParser(maxLine, lenient, hash)
			for j := range jobs {
				j.done <- p.parse(j.blk)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	var pending []chan *parsedBlock // outstanding blocks in file order
	mergeOldest := func() error {
		pb := <-pending[0]
		pending = pending[1:]
		if size > 0 && len(pb.refs) > 0 {
			// A document of known size is ingested without regrowing the
			// term table, its slots or the triple list every few blocks —
			// once it has shown a triple: a builder that ingests none is
			// left as it was.
			b.reserveFor(size, pb)
			size = 0
		}
		b.merge(pb)
		skipped += pb.skipped
		return pb.err
	}
	for {
		if len(pending) == cap(jobs) {
			if err := mergeOldest(); err != nil {
				return skipped, err
			}
		}
		done := make(chan *parsedBlock, 1)
		jobs <- blockJob{blk: blk, done: done}
		pending = append(pending, done)
		if readErr != nil {
			break
		}
		if err := ctx.Err(); err != nil {
			return skipped, err
		}
		blk, readErr = sc.Next()
	}
	for len(pending) > 0 {
		if err := mergeOldest(); err != nil {
			return skipped, err
		}
	}
	if readErr != io.EOF {
		return skipped, readErr
	}
	return skipped, nil
}

type blockJob struct {
	blk  rdf.Block
	done chan *parsedBlock
}

// bytesPerLine is what a line of Web data runs to, near enough: sizing
// by it spares most of the append regrowth without reserving much that
// stays unused.
const bytesPerLine = 128

// inputSize returns the number of bytes r is known to hold, or 0.
func inputSize(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }: // *bytes.Reader, *strings.Reader, *bytes.Buffer
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// reserveFor sizes the builder for a document of size bytes by its
// first block's line rate: Web data brings between half a new term and
// one a line, so room is made for a term and a triple per line, with
// the lines counted at the first block's bytes per line rather than
// guessed. (The first block's own distinct-term rate overshoots: it
// counts the predicates and common objects it repeats once each, and
// read 1.37 terms a line where BBCmusic-DBpedia x2 KB2 brings 0.88.)
// What the document does not fill, Build leaves with the builder.
func (b *Builder) reserveFor(size int, pb *parsedBlock) {
	lines := size * len(pb.refs) / pb.bytes
	b.makeRoom(lines, lines)
}

// makeRoom sizes the builder for that many more terms and triples.
func (b *Builder) makeRoom(terms, triples int) {
	b.reserve(len(b.terms) + terms)
	b.triples = slices.Grow(b.triples, triples)
}

// parsedBlock is one block reduced to what the merge needs: its
// distinct terms in first-appearance order, the hash of each under the
// builder's hash function, and its triples as indices into the terms.
type parsedBlock struct {
	bytes   int // length of the block's text
	terms   []rdf.Term
	hashes  []uint64
	refs    []tripleRef
	skipped int
	err     error // strict mode: the block's first malformed line; terms and refs hold what preceded it
}

// blockParser is the parse state one goroutine reuses from block to
// block. Its term table is block-local and empty between blocks.
type blockParser struct {
	maxLine int
	lenient bool
	termTable
	lastTerms int // distinct terms of the previous block
}

// newBlockParser returns a parser that hashes terms with hash, the
// function of the table its blocks will be merged into.
func newBlockParser(maxLine int, lenient bool, hash func(rdf.Term) uint64) *blockParser {
	return &blockParser{maxLine: maxLine, lenient: lenient, termTable: termTable{hash: hash}}
}

func (p *blockParser) parse(blk rdf.Block) *parsedBlock {
	n := len(blk.Text) / bytesPerLine
	pb := &parsedBlock{bytes: len(blk.Text), refs: make([]tripleRef, 0, n)}
	// The blocks of one document resemble each other: the previous one
	// says better than any constant how many terms a block holds.
	if p.lastTerms > 0 {
		n = p.lastTerms + p.lastTerms/8
	}
	p.terms = make([]rdf.Term, 0, n)
	// Web data comes grouped by subject: a line that repeats the
	// previous line's subject needs no probe.
	var subject rdf.Term
	subjectID := int32(-1)
	pb.skipped, pb.err = rdf.ParseBlock(blk, p.maxLine, p.lenient, func(t rdf.Triple) {
		if subjectID < 0 || t.Subject != subject {
			subject, subjectID = t.Subject, p.intern(t.Subject)
		}
		pb.refs = append(pb.refs, tripleRef{s: subjectID, p: p.intern(t.Predicate), o: p.intern(t.Object)})
	})
	pb.terms, pb.hashes = p.drain()
	p.lastTerms = len(pb.terms)

	// The parsed terms are substrings of the block's text. Copy the
	// distinct ones into one exactly-sized slab, so that the text — every
	// repeat, every delimiter — is garbage once the block is merged.
	size := 0
	for _, t := range pb.terms {
		size += len(t.Value) + len(t.Lang) + len(t.Datatype)
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, t := range pb.terms {
		sb.WriteString(t.Value)
		sb.WriteString(t.Lang)
		sb.WriteString(t.Datatype)
	}
	slab := sb.String()
	for i := range pb.terms {
		t := &pb.terms[i]
		for _, part := range [...]*string{&t.Value, &t.Lang, &t.Datatype} {
			n := len(*part)
			*part, slab = slab[:n], slab[n:]
		}
	}
	return pb
}

// merge interns a block's terms in their block-local first-appearance
// order, under the hashes the parser computed, and records its triples.
// Blocks merged in file order thereby reproduce the term IDs of a
// triple-by-triple Add.
func (b *Builder) merge(pb *parsedBlock) {
	b.trans = b.trans[:0]
	for i, t := range pb.terms {
		b.trans = append(b.trans, b.internHashed(pb.hashes[i], t))
	}
	for _, r := range pb.refs {
		b.record(tripleRef{s: b.trans[r.s], p: b.trans[r.p], o: b.trans[r.o]})
	}
}
