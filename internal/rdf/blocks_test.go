package rdf

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// The scanner's contract, whatever the block size and however the
// source chops its reads: blocks partition the stream at line ends, and
// each knows its first line's number.
func TestBlockScannerPartitionsAtLineEnds(t *testing.T) {
	doc := "first\n\nthird line, rather longer than the others in this document\r\nfourth\n" +
		strings.Repeat("x", 100) + "\nlast, no newline"
	for _, size := range []int{1, 7, 64, 1 << 20} {
		for name, src := range map[string]io.Reader{
			"whole":    strings.NewReader(doc),
			"one-byte": iotest.OneByteReader(strings.NewReader(doc)),
			"data+EOF": iotest.DataErrReader(strings.NewReader(doc)),
		} {
			sc := NewBlockScanner(src, size, 0)
			var got strings.Builder
			for {
				blk, err := sc.Next()
				if want := 1 + strings.Count(got.String(), "\n"); blk.Text != "" && blk.Line != want {
					t.Fatalf("size %d %s: block %q starts at line %d, want %d", size, name, blk.Text, blk.Line, want)
				}
				got.WriteString(blk.Text)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("size %d %s: %v", size, name, err)
				}
				if !strings.HasSuffix(blk.Text, "\n") {
					t.Fatalf("size %d %s: block %q does not end at a line end", size, name, blk.Text)
				}
				if n := strings.Count(blk.Text, "\n"); n > 1 && len(blk.Text) > size {
					t.Fatalf("size %d %s: %d-line block of %d bytes", size, name, n, len(blk.Text))
				}
			}
			if got.String() != doc {
				t.Fatalf("size %d %s: blocks concatenate to %q", size, name, got.String())
			}
			if blk, err := sc.Next(); err != io.EOF || blk.Text != "" {
				t.Fatalf("size %d %s: Next after EOF = %q, %v", size, name, blk.Text, err)
			}
		}
	}
}

type idleReader struct{}

func (idleReader) Read([]byte) (int, error) { return 0, nil }

func TestBlockScannerGivesUpOnIdleSource(t *testing.T) {
	_, err := NewBlockScanner(idleReader{}, 64, 0).Next()
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 1 || !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("idle source: err = %v, want a *ParseError at line 1 wrapping io.ErrNoProgress", err)
	}
}
