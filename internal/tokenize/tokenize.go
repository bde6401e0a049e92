// Package tokenize turns literal values into the schema-agnostic
// bag-of-words representation MinoanER operates on, and produces the
// token n-grams used by the BSL baseline.
//
// Tokenization is deliberately simple and deterministic: lowercase,
// split on any rune that is not a letter or digit. This mirrors the
// token-blocking convention of Papadakis et al. that the paper builds
// on: recall comes from cheap, schema-agnostic keys, precision from the
// matching phase.
package tokenize

import (
	"strings"
	"unicode"
)

// Options control tokenization.
type Options struct {
	// MinLength drops tokens shorter than this many runes (0 or 1 keeps all).
	MinLength int
	// Stopwords are dropped after lowercasing. Nil means no stopword removal;
	// token blocking instead relies on Block Purging to remove the
	// corresponding oversized blocks, as the paper does.
	Stopwords map[string]struct{}
}

// DefaultOptions are used throughout the pipeline: keep everything, let
// Block Purging handle frequent tokens.
var DefaultOptions = Options{}

// Tokens splits a literal into lowercase alphanumeric tokens using opts.
func Tokens(s string, opts Options) []string {
	if s == "" {
		return nil
	}
	out := AppendTokens(make([]string, 0, 8), s, opts)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendTokens appends the tokens of s to dst, in order, and returns the
// extended slice: Tokens for callers that tokenize value after value
// into one buffer.
func AppendTokens(dst []string, s string, opts Options) []string {
	start := -1
	lower := strings.ToLower(s)
	for i, r := range lower {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = emit(dst, lower[start:i], opts)
			start = -1
		}
	}
	if start >= 0 {
		dst = emit(dst, lower[start:], opts)
	}
	return dst
}

func emit(dst []string, tok string, opts Options) []string {
	if opts.MinLength > 1 && runeLen(tok) < opts.MinLength {
		return dst
	}
	if opts.Stopwords != nil {
		if _, ok := opts.Stopwords[tok]; ok {
			return dst
		}
	}
	return append(dst, tok)
}

func runeLen(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// TokensOfAll tokenizes every value and concatenates the results,
// preserving per-value token order.
func TokensOfAll(values []string, opts Options) []string {
	var out []string
	for _, v := range values {
		out = AppendTokens(out, v, opts)
	}
	return out
}

// Set deduplicates tokens into a membership set.
func Set(tokens []string) map[string]struct{} {
	set := make(map[string]struct{}, len(tokens))
	for _, t := range tokens {
		set[t] = struct{}{}
	}
	return set
}

// NGrams produces token n-grams: contiguous runs of n tokens joined by a
// single space. n=1 returns a copy of tokens. Runs shorter than n yield
// nothing. BSL represents every entity by the union of its token
// uni-, bi-, and tri-grams (paper §IV, baseline configuration (i)).
func NGrams(tokens []string, n int) []string {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		out := make([]string, len(tokens))
		copy(out, tokens)
		return out
	}
	if len(tokens) < n {
		return nil
	}
	out := make([]string, 0, len(tokens)-n+1)
	for i := 0; i+n <= len(tokens); i++ {
		out = append(out, strings.Join(tokens[i:i+n], " "))
	}
	return out
}

// NormalizeKey canonicalizes a whole literal into a single blocking key:
// lowercase, tokens joined by single spaces. Used by Name Blocking (H1),
// where "the entire entity names are blocking keys".
func NormalizeKey(s string) string {
	toks := Tokens(s, DefaultOptions)
	if len(toks) == 0 {
		return ""
	}
	return strings.Join(toks, " ")
}
