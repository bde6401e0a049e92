package rdf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error at a specific line of an N-Triples
// document. Err, when non-nil, is the underlying cause (for example
// bufio.ErrTooLong for an oversize line, or an I/O error from the
// source) and is reachable through errors.Is / errors.As.
type ParseError struct {
	Line int    // 1-based line number
	Msg  string // human-readable description
	Err  error  // underlying cause, if any
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("rdf: line %d: %s", e.Line, e.Msg)
}

// Unwrap exposes the underlying cause for errors.Is / errors.As.
func (e *ParseError) Unwrap() error { return e.Err }

// DefaultMaxLineBytes is the longest physical line Reader accepts by
// default. Longer lines are reported as *ParseError wrapping
// bufio.ErrTooLong (and skipped, in lenient mode).
const DefaultMaxLineBytes = 16 * 1024 * 1024

// errOversize marks a physical line that exceeded the reader's limit.
// The line is fully consumed, so reading can continue past it.
var errOversize = errors.New("rdf: line too long")

// Reader parses N-Triples documents (https://www.w3.org/TR/n-triples/)
// line by line. It tolerates blank lines and '#' comments. Malformed
// lines — including lines longer than the configured limit — produce
// *ParseError carrying the line number; in lenient mode they are
// skipped and counted instead. I/O failures of the underlying source
// are also wrapped in *ParseError (with the failing line) but are
// returned even in lenient mode, since no further progress is possible.
type Reader struct {
	br      *bufio.Reader
	line    int
	lenient bool
	skipped int
	maxLine int
}

// NewReader returns a Reader over r in strict mode.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64*1024), maxLine: DefaultMaxLineBytes}
}

// SetLenient toggles lenient mode: malformed lines are skipped rather
// than returned as errors.
//
//minoaner:keep the serial reader is the oracle kb's FuzzIngestBlocks checks the block ingest against
func (r *Reader) SetLenient(lenient bool) { r.lenient = lenient }

// SetMaxLineBytes overrides the physical line-length limit
// (DefaultMaxLineBytes). Values <= 0 restore the default.
//
//minoaner:keep the serial reader is the oracle kb's FuzzIngestBlocks checks the block ingest against
func (r *Reader) SetMaxLineBytes(n int) {
	if n <= 0 {
		n = DefaultMaxLineBytes
	}
	r.maxLine = n
}

// Skipped returns the number of malformed lines (including oversize
// ones) skipped in lenient mode.
//
//minoaner:keep the serial reader is the oracle kb's FuzzIngestBlocks checks the block ingest against
func (r *Reader) Skipped() int { return r.skipped }

// Next returns the next triple, or io.EOF when the document is exhausted.
func (r *Reader) Next() (Triple, error) {
	for {
		raw, err := r.readLine()
		if err == io.EOF {
			return Triple{}, io.EOF
		}
		r.line++
		if err == errOversize {
			if r.lenient {
				r.skipped++
				continue
			}
			return Triple{}, oversizeError(r.line, r.maxLine)
		}
		if err != nil {
			// An I/O failure is not skippable: the source cannot make
			// progress, so lenient mode surfaces it too.
			return Triple{}, readError(r.line, err)
		}
		t, ok, err := parseRaw(raw, r.line)
		if err != nil {
			if r.lenient {
				r.skipped++
				continue
			}
			return Triple{}, err
		}
		if ok {
			return t, nil
		}
	}
}

func oversizeError(line, maxLine int) *ParseError {
	return &ParseError{Line: line, Msg: fmt.Sprintf("line exceeds %d bytes", maxLine), Err: bufio.ErrTooLong}
}

func readError(line int, err error) *ParseError {
	return &ParseError{Line: line, Msg: "read error: " + err.Error(), Err: err}
}

// parseRaw parses one physical line whose newline is already removed.
// Blank lines and '#' comments yield ok == false and no error.
func parseRaw(raw string, line int) (t Triple, ok bool, err error) {
	s := strings.TrimSpace(raw)
	if s == "" || s[0] == '#' {
		return Triple{}, false, nil
	}
	t, err = parseLine(s, line)
	return t, err == nil, err
}

// readLine returns the next physical line without its newline. It
// reports errOversize for a line whose content (excluding the trailing
// newline) exceeds maxLine, after consuming the whole line, so the
// reader can continue behind it. io.EOF is returned only when no bytes
// remain; a final line without a newline is returned normally.
func (r *Reader) readLine() (string, error) {
	var buf []byte
	oversize := false
	for {
		frag, err := r.br.ReadSlice('\n')
		if len(frag) > 0 && !oversize {
			content := len(frag)
			if frag[content-1] == '\n' {
				content-- // the terminator does not count against the limit
			}
			if len(buf)+content > r.maxLine {
				oversize = true
				buf = nil
			} else {
				buf = append(buf, frag...)
			}
		}
		switch err {
		case nil:
			if oversize {
				return "", errOversize
			}
			return string(trimEOL(buf)), nil
		case bufio.ErrBufferFull:
			continue // line continues past the buffered fragment
		case io.EOF:
			if oversize {
				return "", errOversize
			}
			if len(buf) == 0 {
				return "", io.EOF
			}
			return string(trimEOL(buf)), nil
		default:
			return "", err
		}
	}
}

// trimEOL strips a trailing "\n" or "\r\n".
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// ReadAll consumes the rest of the document and returns all triples.
func (r *Reader) ReadAll() ([]Triple, error) {
	var out []Triple
	for {
		t, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

type lineParser struct {
	s    string
	pos  int
	line int
}

func parseLine(s string, line int) (Triple, error) {
	// N-Triples documents are UTF-8; a line with raw invalid bytes
	// cannot round-trip through the rune-based escaping of the writer,
	// so it is malformed (and skippable in lenient mode).
	if !utf8.ValidString(s) {
		return Triple{}, &ParseError{Line: line, Msg: "invalid UTF-8"}
	}
	p := &lineParser{s: s, line: line}
	subj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.ws()
	pred, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.ws()
	obj, err := p.term()
	if err != nil {
		return Triple{}, err
	}
	p.ws()
	if p.pos >= len(p.s) || p.s[p.pos] != '.' {
		return Triple{}, p.errf("expected terminating '.'")
	}
	p.pos++
	p.ws()
	if p.pos != len(p.s) {
		return Triple{}, p.errf("trailing content after '.'")
	}
	t := Triple{Subject: subj, Predicate: pred, Object: obj}
	// The full Validate's per-term UTF-8 scans are redundant here: the
	// whole line was validated up front and escape decoding only emits
	// valid runes, so only the structural checks remain.
	if err := t.validateStructure(); err != nil {
		return Triple{}, &ParseError{Line: line, Msg: err.Error()}
	}
	return t, nil
}

func (p *lineParser) errf(format string, args ...any) error {
	return &ParseError{Line: p.line, Msg: fmt.Sprintf(format, args...) + fmt.Sprintf(" at column %d", p.pos+1)}
}

func (p *lineParser) ws() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t') {
		p.pos++
	}
}

func (p *lineParser) term() (Term, error) {
	if p.pos >= len(p.s) {
		return Term{}, p.errf("unexpected end of line")
	}
	switch p.s[p.pos] {
	case '<':
		return p.iri()
	case '"':
		return p.literal()
	case '_':
		return p.blank()
	default:
		return Term{}, p.errf("unexpected character %q", p.s[p.pos])
	}
}

func (p *lineParser) iri() (Term, error) {
	p.pos++ // consume '<'
	start := p.pos
	var b *strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case '>':
			var v string
			if b == nil {
				v = p.s[start:p.pos]
			} else {
				v = b.String()
			}
			p.pos++
			if v == "" {
				return Term{}, p.errf("empty IRI")
			}
			return NewIRI(v), nil
		case '\\':
			if b == nil {
				b = &strings.Builder{}
				b.WriteString(p.s[start:p.pos])
			}
			r, err := p.escape(false)
			if err != nil {
				return Term{}, err
			}
			b.WriteRune(r)
		case ' ', '<', '"':
			return Term{}, p.errf("invalid character %q in IRI", c)
		default:
			if b != nil {
				b.WriteByte(c)
			}
			p.pos++
		}
	}
	return Term{}, p.errf("unterminated IRI")
}

func (p *lineParser) literal() (Term, error) {
	p.pos++ // consume '"'
	start := p.pos
	var b *strings.Builder
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		switch c {
		case '"':
			var lex string
			if b == nil {
				lex = p.s[start:p.pos]
			} else {
				lex = b.String()
			}
			p.pos++
			return p.literalSuffix(lex)
		case '\\':
			if b == nil {
				b = &strings.Builder{}
				b.WriteString(p.s[start:p.pos])
			}
			r, err := p.escape(true)
			if err != nil {
				return Term{}, err
			}
			b.WriteRune(r)
		default:
			if b != nil {
				b.WriteByte(c)
			}
			p.pos++
		}
	}
	return Term{}, p.errf("unterminated literal")
}

func (p *lineParser) literalSuffix(lex string) (Term, error) {
	if p.pos < len(p.s) && p.s[p.pos] == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.s) && (isAlnum(p.s[p.pos]) || p.s[p.pos] == '-') {
			p.pos++
		}
		if p.pos == start {
			return Term{}, p.errf("empty language tag")
		}
		return NewLangLiteral(lex, p.s[start:p.pos]), nil
	}
	if strings.HasPrefix(p.s[p.pos:], "^^") {
		p.pos += 2
		if p.pos >= len(p.s) || p.s[p.pos] != '<' {
			return Term{}, p.errf("expected datatype IRI after ^^")
		}
		dt, err := p.iri()
		if err != nil {
			return Term{}, err
		}
		return NewTypedLiteral(lex, dt.Value), nil
	}
	return NewLiteral(lex), nil
}

func (p *lineParser) blank() (Term, error) {
	if !strings.HasPrefix(p.s[p.pos:], "_:") {
		return Term{}, p.errf("expected blank node label")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.s) && !isWS(p.s[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return Term{}, p.errf("empty blank node label")
	}
	return NewBlank(p.s[start:p.pos]), nil
}

// escape decodes one backslash escape starting at p.pos (which points at
// the backslash). stringEsc enables the string-only escapes (\t \n etc.).
func (p *lineParser) escape(stringEsc bool) (rune, error) {
	p.pos++ // consume '\'
	if p.pos >= len(p.s) {
		return 0, p.errf("dangling escape")
	}
	c := p.s[p.pos]
	p.pos++
	switch c {
	case 'u':
		return p.hexEscape(4)
	case 'U':
		return p.hexEscape(8)
	}
	if stringEsc {
		switch c {
		case 't':
			return '\t', nil
		case 'b':
			return '\b', nil
		case 'n':
			return '\n', nil
		case 'r':
			return '\r', nil
		case 'f':
			return '\f', nil
		case '"':
			return '"', nil
		case '\'':
			return '\'', nil
		case '\\':
			return '\\', nil
		}
	}
	return 0, p.errf("invalid escape \\%c", c)
}

func (p *lineParser) hexEscape(n int) (rune, error) {
	if p.pos+n > len(p.s) {
		return 0, p.errf("truncated unicode escape")
	}
	v, err := strconv.ParseUint(p.s[p.pos:p.pos+n], 16, 32)
	if err != nil {
		return 0, p.errf("invalid unicode escape: %v", err)
	}
	p.pos += n
	if !utf8.ValidRune(rune(v)) {
		return 0, p.errf("invalid rune U+%04X", v)
	}
	return rune(v), nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

func isWS(c byte) bool { return c == ' ' || c == '\t' }

// Writer serializes triples in N-Triples syntax.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write emits one triple. Invalid triples are rejected before writing.
func (w *Writer) Write(t Triple) error {
	if w.err != nil {
		return w.err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if _, err := w.w.WriteString(t.String()); err != nil {
		w.err = err
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Flush drains the internal buffer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// WriteAll writes every triple followed by a flush.
func WriteAll(w io.Writer, triples []Triple) error {
	tw := NewWriter(w)
	for _, t := range triples {
		if err := tw.Write(t); err != nil {
			return err
		}
	}
	return tw.Flush()
}
