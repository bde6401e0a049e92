package rdf

import (
	"bytes"
	"io"
	"strings"
)

// Block is a run of whole physical lines cut from an N-Triples stream
// by a BlockScanner. Blocks of one stream can be parsed independently
// (ParseBlock) and in any order: each knows the number of its first
// line, so errors carry document line numbers.
type Block struct {
	Text string // whole lines; only a stream's last line may lack its newline
	Line int    // 1-based document line number of the block's first line
	// Oversize marks a block that stands for one physical line which
	// outgrew the scanner's line limit before its newline arrived. The
	// line's text was discarded.
	Oversize bool
}

// BlockScanner cuts an N-Triples stream into line-aligned blocks of
// about blockSize bytes. It is the bulk counterpart of Reader's
// line-at-a-time scanning: the same physical lines, the same line
// limit, the same treatment of a source that fails mid-stream.
type BlockScanner struct {
	r       io.Reader
	size    int
	maxLine int
	buf     []byte // read but not yet handed out
	line    int    // lines handed out so far
	err     error  // the source's sticky read error, io.EOF included
}

// NewBlockScanner returns a scanner over r. A line longer than
// blockSize gets a block of its own, up to maxLine bytes (values <= 0
// select DefaultMaxLineBytes); beyond that it becomes an Oversize block.
func NewBlockScanner(r io.Reader, blockSize, maxLine int) *BlockScanner {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	return &BlockScanner{r: r, size: max(blockSize, 1), maxLine: maxLine}
}

// Next returns the next block. Like io.Reader it can return a block
// together with a non-nil error, which then marks the block as the
// stream's last: io.EOF, or a *ParseError wrapping the source's read
// error at the line the failure interrupted (that partial line is
// dropped). A stream that ends inside its first block therefore costs
// one call, and no more buffer than its length.
func (s *BlockScanner) Next() (Block, error) {
	// buf[:searched] is known to hold no newline; it grows only while
	// one line outruns the block size.
	searched := 0
	for {
		s.fill(searched + s.size)
		if s.err != nil {
			end := len(s.buf)
			if s.err != io.EOF {
				end = bytes.LastIndexByte(s.buf, '\n') + 1
			}
			blk := s.take(end)
			s.buf = nil
			if s.err != io.EOF {
				return blk, readError(s.line+1, s.err)
			}
			return blk, io.EOF
		}
		if cut := bytes.LastIndexByte(s.buf[searched:], '\n'); cut >= 0 {
			return s.take(searched + cut + 1), nil
		}
		searched = len(s.buf)
		if searched > s.maxLine {
			return s.skipLine()
		}
	}
}

// fill reads until buf holds limit bytes or the source fails. The
// buffer starts small and doubles, so a short stream never pays for a
// whole block.
func (s *BlockScanner) fill(limit int) {
	for idle := 0; s.err == nil && len(s.buf) < limit; {
		if len(s.buf) == cap(s.buf) {
			grown := make([]byte, len(s.buf), min(max(2*cap(s.buf), 4096), limit))
			copy(grown, s.buf)
			s.buf = grown
		}
		n, err := s.r.Read(s.buf[len(s.buf):min(cap(s.buf), limit)])
		s.buf = s.buf[:len(s.buf)+n]
		switch {
		case err != nil:
			s.err = err
		case n > 0:
			idle = 0
		default:
			// Same patience as bufio.Reader with a source that keeps
			// returning (0, nil).
			if idle++; idle >= 100 {
				s.err = io.ErrNoProgress
			}
		}
	}
}

// take hands out buf[:end] as a block and keeps the rest.
func (s *BlockScanner) take(end int) Block {
	blk := Block{Text: string(s.buf[:end]), Line: s.line + 1}
	s.line += strings.Count(blk.Text, "\n")
	if end > 0 && s.buf[end-1] != '\n' {
		s.line++ // a final line without newline
	}
	s.buf = s.buf[:copy(s.buf, s.buf[end:])]
	return blk
}

// skipLine discards the rest of a line already longer than the limit
// and reports it as an Oversize block.
func (s *BlockScanner) skipLine() (Block, error) {
	for {
		s.buf = s.buf[:0]
		s.fill(s.size)
		if i := bytes.IndexByte(s.buf, '\n'); i >= 0 {
			s.buf = s.buf[:copy(s.buf, s.buf[i+1:])]
			break
		}
		if s.err == io.EOF {
			s.buf = nil
			s.line++
			return Block{Line: s.line, Oversize: true}, io.EOF
		}
		if s.err != nil {
			// The line never completed: the failure is all that is
			// left to report, as for any other interrupted line.
			s.buf = nil
			return Block{Line: s.line + 1}, readError(s.line+1, s.err)
		}
	}
	s.line++
	return Block{Line: s.line, Oversize: true}, nil
}

// ParseBlock parses the lines of one block, calling emit for every
// triple in line order. It applies Reader's rules line for line: blank
// lines and '#' comments are ignored; a malformed line, or one whose
// content exceeds maxLine bytes, stops a strict parse with a
// *ParseError carrying its document line number (triples of earlier
// lines have been emitted by then) and is skipped and counted in
// lenient mode. maxLine <= 0 selects DefaultMaxLineBytes. Term strings
// share the block's text.
func ParseBlock(b Block, maxLine int, lenient bool, emit func(Triple)) (skipped int, err error) {
	if maxLine <= 0 {
		maxLine = DefaultMaxLineBytes
	}
	if b.Oversize {
		if lenient {
			return 1, nil
		}
		return 0, oversizeError(b.Line, maxLine)
	}
	text := b.Text
	for line := b.Line; len(text) > 0; line++ {
		raw := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			raw, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		var t Triple
		var ok bool
		if len(raw) > maxLine {
			err = oversizeError(line, maxLine)
		} else {
			t, ok, err = parseRaw(raw, line)
		}
		if err != nil {
			if !lenient {
				return skipped, err
			}
			skipped++
			continue
		}
		if ok {
			emit(t)
		}
	}
	return skipped, nil
}
