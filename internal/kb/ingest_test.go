package kb_test

// Differential tests of the block-parallel ingest (Builder.AddFromReader)
// against the serial oracle it replaced: rdf.Reader.Next + Builder.Add,
// one line and one triple at a time. Whatever the block size and worker
// count, the builder must end up with the same term table, the same
// recorded triples and a KB with the same WriteBinary bytes — and must
// fail, skip and stop exactly where the oracle does.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"minoaner/internal/datagen"
	"minoaner/internal/kb"
	"minoaner/internal/rdf"
)

// ingestOutcome is everything one ingest of a document leaves behind.
type ingestOutcome struct {
	terms   []rdf.Term
	refs    [][3]int32
	skipped int
	err     error
	binary  []byte // WriteBinary of the built KB; nil after an error
}

func finish(t *testing.T, b *kb.Builder, skipped int, err error) ingestOutcome {
	t.Helper()
	out := ingestOutcome{skipped: skipped, err: err}
	out.terms, out.refs = b.Interned()
	if err == nil {
		built, berr := b.Build()
		if berr != nil {
			t.Fatal(berr)
		}
		var buf bytes.Buffer
		if werr := built.WriteBinary(&buf); werr != nil {
			t.Fatal(werr)
		}
		out.binary = buf.Bytes()
	}
	return out
}

// serialIngest is the oracle.
func serialIngest(t *testing.T, r io.Reader, maxLine int, lenient bool) ingestOutcome {
	t.Helper()
	rr := rdf.NewReader(r)
	rr.SetMaxLineBytes(maxLine)
	rr.SetLenient(lenient)
	b := kb.NewBuilder("doc")
	var err error
	for err == nil {
		var tr rdf.Triple
		if tr, err = rr.Next(); err == nil {
			err = b.Add(tr)
		}
	}
	if err == io.EOF {
		err = nil
	}
	return finish(t, b, rr.Skipped(), err)
}

func blockIngest(t *testing.T, r io.Reader, blockSize, maxLine, workers int, lenient bool) ingestOutcome {
	t.Helper()
	b := kb.NewBuilder("doc")
	b.SetWorkers(workers)
	skipped, err := b.IngestBlocks(context.Background(), r, blockSize, maxLine, lenient)
	return finish(t, b, skipped, err)
}

// sameOutcome compares a block ingest with the oracle's: builder state,
// skip count, KB bytes, and for failures the line, message and cause.
func sameOutcome(t *testing.T, label string, got, want ingestOutcome) {
	t.Helper()
	if !reflect.DeepEqual(got.terms, want.terms) {
		t.Errorf("%s: term table differs (%d terms, oracle %d)", label, len(got.terms), len(want.terms))
	}
	if !reflect.DeepEqual(got.refs, want.refs) {
		t.Errorf("%s: recorded triples differ (%d, oracle %d)", label, len(got.refs), len(want.refs))
	}
	if got.skipped != want.skipped {
		t.Errorf("%s: skipped %d lines, oracle %d", label, got.skipped, want.skipped)
	}
	if !bytes.Equal(got.binary, want.binary) {
		t.Errorf("%s: WriteBinary bytes differ from the oracle's", label)
	}
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error = %v, oracle %v", label, got.err, want.err)
	}
	if want.err == nil {
		return
	}
	var gpe, wpe *rdf.ParseError
	if !errors.As(want.err, &wpe) {
		t.Fatalf("%s: oracle error %v is no *rdf.ParseError", label, want.err)
	}
	if !errors.As(got.err, &gpe) {
		t.Fatalf("%s: error %v (%T) is no *rdf.ParseError", label, got.err, got.err)
	}
	if gpe.Line != wpe.Line || gpe.Msg != wpe.Msg || gpe.Err != wpe.Err {
		t.Errorf("%s: error %q (cause %v), oracle %q (cause %v)", label, gpe, gpe.Err, wpe, wpe.Err)
	}
}

var (
	ingestBlockSizes = []int{64, 1024, kb.IngestBlockBytes}
	ingestWorkers    = []int{1, 2, 8}
)

// forEachShape runs one document through every block size and worker
// count against one oracle run. open must return a fresh reader over the
// same bytes each time.
func forEachShape(t *testing.T, name string, maxLine int, lenient bool, open func() io.Reader) {
	t.Helper()
	want := serialIngest(t, open(), maxLine, lenient)
	for _, bs := range ingestBlockSizes {
		for _, w := range ingestWorkers {
			label := fmt.Sprintf("%s lenient=%v block=%d workers=%d", name, lenient, bs, w)
			sameOutcome(t, label, blockIngest(t, open(), bs, maxLine, w, lenient), want)
		}
	}
}

// craftedDoc holds what line-oriented scanning and term interning can
// get wrong: CRLF, blank and comment lines, a duplicate triple that
// straddles a 64-byte block boundary, lang/datatype variants of one
// literal, a literal spelling a dangling IRI, a blank node next to the
// IRI that spells its key, and no trailing newline.
const craftedDoc = "# a comment, then a blank line\r\n" +
	"\r\n" +
	"<http://e/a> <http://v/name> \"Alpha\" .\r\n" +
	"<http://e/a> <http://v/name> \"Alpha\" .\n" +
	"   \t \n" +
	"<http://e/a> <http://v/name> \"Alpha\"@en .\n" +
	"<http://e/a> <http://v/name> \"Alpha\"^^<http://www.w3.org/2001/XMLSchema#string> .\n" +
	"<http://e/a> <http://v/see> <http://else/where> .\n" +
	"<http://e/a> <http://v/see> \"http://else/where\" .\n" +
	"_:x <http://v/name> \"blank \\u00e9 \\\"x\\\"\" .\n" +
	"<_:x> <http://v/name> \"iri spelled like a blank key\" .\n" +
	"<http://e/a> <http://v/knows> _:x .\n" +
	"<http://e/a> <http://v/knows> <_:x> .\n" +
	"<http://e/b> <http://v/knows> _:y .\n" +
	"<_:y> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://v/Thing> .\n" +
	"  # indented comment\n" +
	"<http://e/b> <http://v/name> \"Beta\" ."

func TestIngestMatchesSerialOracle(t *testing.T) {
	docs := map[string][]byte{"crafted": []byte(craftedDoc)}
	for _, g := range datagen.Generators() {
		// Large enough that the bigger KBs span several production-size
		// blocks.
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		for side, triples := range map[string][]rdf.Triple{"/KB1": ds.Triples1, "/KB2": ds.Triples2} {
			var nt bytes.Buffer
			if err := rdf.WriteAll(&nt, triples); err != nil {
				t.Fatal(err)
			}
			docs[ds.Name+side] = nt.Bytes()
		}
	}
	multiBlock := false
	for name, doc := range docs {
		multiBlock = multiBlock || len(doc) > 2*kb.IngestBlockBytes
		forEachShape(t, name, 0, false, func() io.Reader { return bytes.NewReader(doc) })
	}
	if !multiBlock {
		t.Error("no document spans several production-size blocks")
	}
}

// malformedAt returns a document of n well-formed lines with line bad
// (1-based) replaced by garbage.
func malformedAt(n, bad int) string {
	var sb strings.Builder
	for i := 1; i <= n; i++ {
		if i == bad {
			sb.WriteString("<http://e/broken> <http://v/p> \"unterminated .\n")
			continue
		}
		fmt.Fprintf(&sb, "<http://e/s%d> <http://v/p> \"value %d\" .\n", i%7, i)
	}
	return sb.String()
}

func TestIngestErrorParity(t *testing.T) {
	const lines = 40 // ≈ 40 bytes each: every 64-byte block holds one or two
	for bad := 1; bad <= lines; bad++ {
		doc := malformedAt(lines, bad)
		for _, lenient := range []bool{false, true} {
			forEachShape(t, fmt.Sprintf("bad line %d", bad), 0, lenient,
				func() io.Reader { return strings.NewReader(doc) })
		}
	}
	// Several malformed lines: strict reports the first, lenient counts all.
	doc := malformedAt(lines, 7) + malformedAt(lines, 1) + "garbage without newline"
	for _, lenient := range []bool{false, true} {
		forEachShape(t, "three bad lines", 0, lenient, func() io.Reader { return strings.NewReader(doc) })
	}
}

func TestIngestOversizeLines(t *testing.T) {
	const maxLine = 128
	long := func(n int) string {
		return "<http://e/long> <http://v/p> \"" + strings.Repeat("x", n) + "\" ."
	}
	ok := "<http://e/a> <http://v/p> \"ok\" .\n"
	docs := map[string]string{
		"spanning blocks":        ok + long(300) + "\n" + ok,
		"last line, no newline":  ok + long(300),
		"first line":             long(5000) + "\n" + ok,
		"exactly at the limit":   ok + long(maxLine-len(long(0))) + "\n" + ok,
		"one byte over":          ok + long(maxLine-len(long(0))+1) + "\n" + ok,
		"CR counts, LF does not": ok + long(maxLine-len(long(0))) + "\r\n" + ok,
		"long but legal":         ok + long(100) + "\n" + ok,
		"two in a row":           long(200) + "\n" + long(4000) + "\n" + ok,
	}
	for name, doc := range docs {
		for _, lenient := range []bool{false, true} {
			forEachShape(t, name, maxLine, lenient, func() io.Reader { return strings.NewReader(doc) })
		}
	}
	// The strict failure keeps the shape callers match on.
	out := blockIngest(t, strings.NewReader(docs["spanning blocks"]), 64, maxLine, 2, false)
	var pe *rdf.ParseError
	if !errors.As(out.err, &pe) || pe.Line != 2 {
		t.Fatalf("oversize error = %v, want *rdf.ParseError at line 2", out.err)
	}
}

// failAfter yields data, then fails with err instead of io.EOF.
type failAfter struct {
	data io.Reader
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.data.Read(p)
	if err == io.EOF {
		err = f.err
	}
	return n, err
}

func TestIngestReaderFailsMidStream(t *testing.T) {
	cause := errors.New("disk on fire")
	whole := malformedAt(30, 0)
	cuts := map[string]string{
		"inside a line":        whole[:len(whole)-17],
		"at a line end":        whole,
		"before any byte":      "",
		"behind a bad line":    malformedAt(30, 12)[:700],
		"inside oversize line": "<http://e/a> <http://v/p> \"" + strings.Repeat("x", 9000),
	}
	for name, doc := range cuts {
		for _, lenient := range []bool{false, true} {
			forEachShape(t, name, 4096, lenient, func() io.Reader {
				return &failAfter{data: strings.NewReader(doc), err: cause}
			})
		}
	}
	out := blockIngest(t, &failAfter{data: strings.NewReader(cuts["inside a line"]), err: cause}, 64, 0, 2, true)
	if !errors.Is(out.err, cause) {
		t.Fatalf("lenient read failure = %v, want it to wrap the cause", out.err)
	}
}

// cancelAfter cancels a context once n bytes have been read.
type cancelAfter struct {
	data   io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(p []byte) (int, error) {
	n, err := c.data.Read(p)
	if c.n -= n; c.n <= 0 {
		c.cancel()
	}
	return n, err
}

func TestIngestCancellation(t *testing.T) {
	doc := malformedAt(2000, 0)
	for _, bs := range ingestBlockSizes {
		for _, w := range ingestWorkers {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			b := kb.NewBuilder("doc")
			b.SetWorkers(w)
			if _, err := b.IngestBlocks(ctx, strings.NewReader(doc), bs, 0, false); !errors.Is(err, context.Canceled) {
				t.Errorf("block=%d workers=%d: cancelled before the call: err = %v", bs, w, err)
			}
			if _, refs := b.Interned(); len(refs) != 0 {
				t.Errorf("block=%d workers=%d: ingested %d triples under a cancelled context", bs, w, len(refs))
			}
		}
	}
	// Mid-stream: the ingest stops between blocks and returns once its
	// workers have.
	for _, w := range ingestWorkers {
		ctx, cancel := context.WithCancel(context.Background())
		b := kb.NewBuilder("doc")
		b.SetWorkers(w)
		src := &cancelAfter{data: strings.NewReader(doc), n: len(doc) / 2, cancel: cancel}
		if _, err := b.IngestBlocks(ctx, src, 1024, 0, false); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: cancelled mid-stream: err = %v", w, err)
		}
		if _, refs := b.Interned(); len(refs) >= 2000 {
			t.Errorf("workers=%d: the whole document was ingested despite the cancellation", w)
		}
		cancel()
	}
}

// FuzzIngestBlocks is the differential fuzzer: any byte string, cut at
// any block size, must be accepted or rejected exactly as the serial
// reader does — same line, message and cause — and leave the same
// skipped count and the same interned triples, strict and lenient.
func FuzzIngestBlocks(f *testing.F) {
	f.Add([]byte(craftedDoc), uint16(64))
	f.Add([]byte(craftedDoc), uint16(1))
	f.Add([]byte(malformedAt(12, 5)), uint16(50))
	f.Add([]byte("<http://a> <http://p> \""+strings.Repeat("x", 400)+"\" .\n<http://a> <http://p> \"v\" .\n"), uint16(100))
	f.Add([]byte(strings.Repeat("y", 300)), uint16(7))
	f.Add([]byte("<http://a> <http://p> \"bad utf8 \xff\" .\n\n#\n<http://a> <http://p> <http://b> ."), uint16(16))
	f.Add([]byte("\n\n\r\n"), uint16(2))

	// The line limit is small so that the oversize path is reachable.
	const maxLine = 256
	f.Fuzz(func(t *testing.T, data []byte, blockSize uint16) {
		for _, lenient := range []bool{false, true} {
			want := serialIngest(t, bytes.NewReader(data), maxLine, lenient)
			got := blockIngest(t, bytes.NewReader(data), int(blockSize), maxLine, 2, lenient)
			sameOutcome(t, fmt.Sprintf("lenient=%v block=%d", lenient, blockSize), got, want)
		}
	})
}

// TestIngestReservesFromFirstBlock: the reservation the first block's
// rates make holds each generated benchmark's KBs at x2 whole, so the
// serial merge never regrows the term table's terms or slots.
func TestIngestReservesFromFirstBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the four benchmarks at x2")
	}
	for _, g := range datagen.Generators() {
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: 2})
		if err != nil {
			t.Fatal(err)
		}
		for side, triples := range map[string][]rdf.Triple{"KB1": ds.Triples1, "KB2": ds.Triples2} {
			var nt strings.Builder
			if err := rdf.WriteAll(&nt, triples); err != nil {
				t.Fatal(err)
			}
			regrew, err := kb.NewBuilder(side).IngestRegrows(nt.String())
			if err != nil {
				t.Fatal(err)
			}
			if regrew {
				t.Errorf("%s %s: the term table regrew after the first block's reservation", ds.Name, side)
			}
		}
	}
}

// BenchmarkIngest is the ingest rung of the layer ladder: N-Triples text
// of a generated KB2 → AddFromReader → Build, reported in MB/s. Run it
// at -cpu 1,2 to see what the block-parallel parse and the parallel
// passes of Build buy.
func BenchmarkIngest(b *testing.B) {
	for _, name := range []string{"BBCmusic-DBpedia", "YAGO-IMDb"} {
		g, ok := datagen.ByName(name)
		if !ok {
			b.Fatalf("no generator %q", name)
		}
		ds, err := g.Build(datagen.Options{Seed: 42, Scale: 1})
		if err != nil {
			b.Fatal(err)
		}
		var nt bytes.Buffer
		if err := rdf.WriteAll(&nt, ds.Triples2); err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(nt.Len()))
			b.ReportAllocs()
			for b.Loop() {
				bld := kb.NewBuilder(name)
				if _, err := bld.AddFromReader(context.Background(), bytes.NewReader(nt.Bytes()), false); err != nil {
					b.Fatal(err)
				}
				if _, err := bld.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
