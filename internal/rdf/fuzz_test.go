package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// fuzzMaxLine keeps the oversize-line path reachable with small fuzz
// inputs.
const fuzzMaxLine = 256

// FuzzReadTriples drives Reader over arbitrary documents in both strict
// and lenient mode and checks the parser's contract:
//
//   - no panics, ever
//   - strict mode fails only with *ParseError carrying a positive line
//     number; oversize lines wrap bufio.ErrTooLong
//   - lenient mode never fails on in-memory input (I/O errors are the
//     only non-skippable failures) and counts every skipped line
//   - every parsed triple is valid and survives a write/re-parse round
//     trip unchanged
//   - lenient parsing agrees with strict parsing on documents strict
//     mode accepts, and skips exactly the lines that fail line-by-line
func FuzzReadTriples(f *testing.F) {
	// Well-formed constructs.
	f.Add("<http://a> <http://p> <http://b> .\n")
	f.Add("<http://a> <http://p> \"literal value\" .\n")
	f.Add("<http://a> <http://p> \"v\"@en-GB .\n")
	f.Add("<http://a> <http://p> \"3\"^^<http://www.w3.org/2001/XMLSchema#int> .\n")
	f.Add("_:b1 <http://p> _:b2 .\n")
	f.Add("<http://a> <http://p> \"esc \\\"q\\\" \\n \\u00e9 \\U0001F600\" .\n")
	f.Add("# comment\n\n   \n<http://a> <http://p> <http://b> . \n")
	// Bad-IRI and other malformed lines (the lenient-skip paths).
	f.Add("<http://a b> <http://p> <http://c> .\n")                         // space in IRI
	f.Add("<> <http://p> <http://c> .\n")                                   // empty IRI
	f.Add("<http://a <http://p> <http://c> .\n")                            // '<' inside IRI
	f.Add("<http://a> <http://p> \"unterminated .\n")                       // unterminated literal
	f.Add("<http://a> <http://p> <http://c>\n")                             // missing dot
	f.Add("<http://a> <http://p> <http://c> . extra\n")                     // trailing content
	f.Add("<http://a> <http://p> \"v\"@ .\n")                               // empty language tag
	f.Add("<http://a> <http://p> \"v\"^^x .\n")                             // bad datatype
	f.Add("\"s\" <http://p> <http://c> .\n")                                // literal subject
	f.Add("<http://a> \"p\" <http://c> .\n")                                // literal predicate
	f.Add("<http://a> <http://p> \"bad \\q esc\" .\n")                      // invalid escape
	f.Add("<http://a> <http://p> \"\\ud800\" .\n")                          // surrogate rune
	f.Add("not a triple at all\n")                                          // garbage
	f.Add("<http://a> <http://p> \"" + strings.Repeat("x", 400) + "\" .\n") // oversize
	f.Add(strings.Repeat("y", 300))                                         // oversize, no newline
	f.Add("<http://a> <http://p> <http://b> .\r\n")                         // CRLF
	f.Add("mixed\n<http://a> <http://p> <http://b> .\n# c\nbroken <\n")
	// The IRI scan's fast path and each way out of it: a stop byte
	// (space, '<', backslash) before the '>', an escape, no '>' at all.
	f.Add("<a b> <http://p> <http://c> .\n")
	f.Add("<a<b> <http://p> <http://c> .\n")
	f.Add("<a\\u0041> <http://p> <http://c> .\n")
	f.Add("<http://a> <http://p> <http://unterminated .\n")

	f.Fuzz(func(t *testing.T, doc string) {
		// Strict pass: only *ParseError failures, valid triples.
		strict := NewReader(strings.NewReader(doc))
		strict.SetMaxLineBytes(fuzzMaxLine)
		var strictTriples []Triple
		var strictErr error
		for {
			tr, err := strict.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				strictErr = err
				var pe *ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("strict error is not *ParseError: %T %v", err, err)
				}
				if pe.Line <= 0 {
					t.Fatalf("ParseError without line number: %v", pe)
				}
				break
			}
			strictTriples = append(strictTriples, tr)
		}
		if strictErr != nil && errors.Is(strictErr, bufio.ErrTooLong) {
			// The oversize path must report the configured limit.
			if !strings.Contains(strictErr.Error(), "exceeds") {
				t.Fatalf("oversize error lacks limit message: %v", strictErr)
			}
		}

		// Lenient pass: never fails on in-memory input.
		lenient := NewReader(strings.NewReader(doc))
		lenient.SetLenient(true)
		lenient.SetMaxLineBytes(fuzzMaxLine)
		lenientTriples, err := lenient.ReadAll()
		if err != nil {
			t.Fatalf("lenient mode failed: %v", err)
		}
		if lenient.Skipped() < 0 {
			t.Fatalf("negative skip count %d", lenient.Skipped())
		}
		if strictErr == nil {
			if lenient.Skipped() != 0 {
				t.Fatalf("strict succeeded but lenient skipped %d lines", lenient.Skipped())
			}
			if len(lenientTriples) != len(strictTriples) {
				t.Fatalf("strict parsed %d triples, lenient %d", len(strictTriples), len(lenientTriples))
			}
		}

		// Round trip: every lenient triple is valid, serializes, and
		// re-parses to itself.
		for _, tr := range lenientTriples {
			if err := tr.Validate(); err != nil {
				t.Fatalf("parsed invalid triple %v: %v", tr, err)
			}
		}
		if len(lenientTriples) > 0 {
			var buf bytes.Buffer
			if err := WriteAll(&buf, lenientTriples); err != nil {
				t.Fatalf("serializing parsed triples: %v", err)
			}
			back, err := ParseString(buf.String())
			if err != nil {
				t.Fatalf("re-parsing serialized triples: %v\n%s", err, buf.String())
			}
			if len(back) != len(lenientTriples) {
				t.Fatalf("round trip changed count: %d -> %d", len(lenientTriples), len(back))
			}
			for i := range back {
				if back[i] != lenientTriples[i] {
					t.Fatalf("round trip changed triple %d:\n%v\n%v", i, lenientTriples[i], back[i])
				}
			}
		}
	})
}
