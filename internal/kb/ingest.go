package kb

import (
	"context"
	"io"
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
	sc := rdf.NewBlockScanner(r, blockSize, maxLine)
	blk, readErr := sc.Next()
	if readErr != nil {
		// The whole input is one block: no goroutines to feed.
		pb := newBlockParser(maxLine, lenient).parse(blk)
		b.merge(pb)
		if pb.err == nil && readErr != io.EOF {
			pb.err = readErr
		}
		return pb.skipped, pb.err
	}

	workers := parallel.Workers(b.workers)
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
			p := newBlockParser(maxLine, lenient)
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

// parsedBlock is one block reduced to what the merge needs: its
// distinct terms in first-appearance order and its triples as indices
// into them.
type parsedBlock struct {
	terms   []rdf.Term
	refs    []tripleRef
	skipped int
	err     error // strict mode: the block's first malformed line; terms and refs hold what preceded it
}

// blockParser is the parse state one goroutine reuses from block to
// block.
type blockParser struct {
	maxLine int
	lenient bool
	index   map[rdf.Term]int32
}

func newBlockParser(maxLine int, lenient bool) *blockParser {
	return &blockParser{maxLine: maxLine, lenient: lenient, index: make(map[rdf.Term]int32)}
}

func (p *blockParser) parse(blk rdf.Block) *parsedBlock {
	// A line of Web data runs to about a hundred bytes; starting near the
	// final sizes spares most of the append regrowth.
	n := len(blk.Text) / 128
	pb := &parsedBlock{terms: make([]rdf.Term, 0, n), refs: make([]tripleRef, 0, n)}
	intern := func(t rdf.Term) int32 {
		id, ok := p.index[t]
		if !ok {
			id = int32(len(pb.terms))
			pb.terms = append(pb.terms, t)
			p.index[t] = id
		}
		return id
	}
	pb.skipped, pb.err = rdf.ParseBlock(blk, p.maxLine, p.lenient, func(t rdf.Triple) {
		pb.refs = append(pb.refs, tripleRef{s: intern(t.Subject), p: intern(t.Predicate), o: intern(t.Object)})
	})

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
	clear(p.index) // its keys were the last references into the text
	return pb
}

// merge interns a block's terms in their block-local first-appearance
// order and records its triples. Blocks merged in file order thereby
// reproduce the term IDs of a triple-by-triple Add.
func (b *Builder) merge(pb *parsedBlock) {
	b.trans = b.trans[:0]
	for _, t := range pb.terms {
		b.trans = append(b.trans, b.intern(t))
	}
	for _, r := range pb.refs {
		b.record(tripleRef{s: b.trans[r.s], p: b.trans[r.p], o: b.trans[r.o]})
	}
}
