package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokens(t *testing.T) {
	tests := []struct {
		name string
		in   string
		opts Options
		want []string
	}{
		{"simple", "Joe's Diner", DefaultOptions, []string{"joe", "s", "diner"}},
		{"empty", "", DefaultOptions, nil},
		{"punctuation only", "!!! --- ...", DefaultOptions, nil},
		{"digits", "Route 66 West", DefaultOptions, []string{"route", "66", "west"}},
		{"unicode letters", "Café Zoë", DefaultOptions, []string{"café", "zoë"}},
		{"greek", "Αθήνα-Ελλάδα", DefaultOptions, []string{"αθήνα", "ελλάδα"}},
		{"mixed separators", "a,b;c\td\ne", DefaultOptions, []string{"a", "b", "c", "d", "e"}},
		{"min length", "a bb ccc dddd", Options{MinLength: 3}, []string{"ccc", "dddd"}},
		{"stopwords", "the quick the fox", Options{Stopwords: map[string]struct{}{"the": {}}}, []string{"quick", "fox"}},
		{"uppercase folded", "IBM Corp", DefaultOptions, []string{"ibm", "corp"}},
		{"trailing token", "end2end", DefaultOptions, []string{"end2end"}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Tokens(tc.in, tc.opts)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Tokens(%q) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestTokensOfAll(t *testing.T) {
	got := TokensOfAll([]string{"Alpha Beta", "", "Gamma"}, DefaultOptions)
	want := []string{"alpha", "beta", "gamma"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokensOfAll = %v, want %v", got, want)
	}
}

func TestSet(t *testing.T) {
	toks := []string{"a", "b", "a", "c", "b"}
	set := Set(toks)
	if len(set) != 3 {
		t.Errorf("set size = %d, want 3", len(set))
	}
}

func TestAppendTokens(t *testing.T) {
	buf := make([]string, 0, 8)
	got := AppendTokens(buf, "Alpha beta", DefaultOptions)
	got = AppendTokens(got, "", DefaultOptions)
	got = AppendTokens(got, "beta-Gamma", DefaultOptions)
	want := []string{"alpha", "beta", "beta", "gamma"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendTokens = %v, want %v", got, want)
	}
	if &got[0] != &buf[:1][0] {
		t.Error("AppendTokens did not reuse the buffer it was given")
	}
}

func TestNGrams(t *testing.T) {
	toks := []string{"new", "york", "city"}
	tests := []struct {
		n    int
		want []string
	}{
		{0, nil},
		{1, []string{"new", "york", "city"}},
		{2, []string{"new york", "york city"}},
		{3, []string{"new york city"}},
		{4, nil},
	}
	for _, tc := range tests {
		got := NGrams(toks, tc.n)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("NGrams(n=%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestNGramsDoesNotAliasInput(t *testing.T) {
	toks := []string{"a", "b"}
	got := NGrams(toks, 1)
	got[0] = "mutated"
	if toks[0] != "a" {
		t.Error("NGrams(_,1) aliases its input")
	}
}

func TestNormalizeKey(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Joe's  Diner!", "joe s diner"},
		{"", ""},
		{"---", ""},
		{"ONE two", "one two"},
	}
	for _, tc := range tests {
		if got := NormalizeKey(tc.in); got != tc.want {
			t.Errorf("NormalizeKey(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestNormalizeKeyShortcut: a value already in key form is returned as
// it is, without allocating, and every value — in key form or near it —
// normalizes to the join of its tokens.
func TestNormalizeKeyShortcut(t *testing.T) {
	for _, in := range []string{
		"a", "abc 123", "tok01 tok07 tok13", "x y z",
		" a", "a ", "a  b", "A b", "a-b", "é", "a\tb", "ab\x00",
	} {
		if got, want := NormalizeKey(in), strings.Join(Tokens(in, DefaultOptions), " "); got != want {
			t.Errorf("NormalizeKey(%q) = %q, want %q", in, got, want)
		}
	}
	const key = "already normalized 42"
	if allocs := testing.AllocsPerRun(100, func() { NormalizeKey(key) }); allocs != 0 {
		t.Errorf("NormalizeKey of a normalized value allocated %v times", allocs)
	}
}

// Property: tokenization is idempotent — tokenizing the join of the
// tokens yields the same tokens.
func TestTokensIdempotent(t *testing.T) {
	f := func(s string) bool {
		first := Tokens(s, DefaultOptions)
		again := Tokens(strings.Join(first, " "), DefaultOptions)
		return reflect.DeepEqual(first, again)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: all emitted tokens are non-empty and lowercase.
func TestTokensWellFormed(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokens(s, DefaultOptions) {
			if tok == "" || tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: n-gram count is exactly max(0, len(tokens)-n+1) for n>1.
func TestNGramCountProperty(t *testing.T) {
	f := func(raw []string, n uint8) bool {
		k := int(n%4) + 1
		toks := Tokens(strings.Join(raw, " "), DefaultOptions)
		got := len(NGrams(toks, k))
		want := len(toks) - k + 1
		if want < 0 {
			want = 0
		}
		if k == 1 {
			want = len(toks)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTokens(b *testing.B) {
	s := "The Quick Brown Fox Jumps Over the Lazy Dog, 42 Times — Every Day!"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokens(s, DefaultOptions)
	}
}
