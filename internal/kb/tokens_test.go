package kb

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"minoaner/internal/rdf"
	"minoaner/internal/tokenize"
)

// checkVocabulary requires the vocabulary contract: tokens ascending
// and distinct, every bag ascending and distinct within it, and every
// token held by some bag.
func checkVocabulary(t *testing.T, k *KB, label string) {
	t.Helper()
	vocab := k.Vocabulary()
	for i := 1; i < len(vocab); i++ {
		if vocab[i-1] >= vocab[i] {
			t.Fatalf("%s: vocabulary not ascending at %d: %q, %q", label, i, vocab[i-1], vocab[i])
		}
	}
	held := make([]bool, len(vocab))
	for e := 0; e < k.Len(); e++ {
		bag := k.TokenIDs(EntityID(e))
		for j, id := range bag {
			if id < 0 || int(id) >= len(vocab) || j > 0 && bag[j-1] >= id {
				t.Fatalf("%s: entity %d bag %v not ascending IDs into a %d-token vocabulary", label, e, bag, len(vocab))
			}
			held[id] = true
		}
	}
	if i := slices.Index(held, false); i >= 0 {
		t.Fatalf("%s: vocabulary token %q is in no bag", label, vocab[i])
	}
}

// FuzzTokenBags builds a KB from fuzzed literal values, '|'-separated,
// dealt round-robin to three entities under two predicates. Each
// entity's bag, read back as strings, must be the sorted distinct
// tokenize.AppendTokens output of its values, after Build and after a
// WriteBinary -> OpenBinary round trip.
func FuzzTokenBags(f *testing.F) {
	f.Add("Hello, World!|hello world|WORLD")
	f.Add("Ärger über Straße|ÄRGER|straße-strasse")
	f.Add("日本語のテキスト|テキスト 日本語|Ελληνικά ΣΊΣΥΦΟΣ σίσυφος")
	f.Add("İstanbul|ISTANBUL|ǅemal ǄEMAL")
	f.Add("éte|éte|x²+y³=z¹|٣٤ ٥")
	f.Add("a.b_c-d/e|a b c d e||  |...")
	f.Add("MiXeD CaSe 123 mixed case 0123|123")
	f.Fuzz(func(t *testing.T, data string) {
		values := strings.Split(data, "|")
		const nEntities = 3
		want := make([][]string, nEntities)
		b := NewBuilder("fuzz")
		for i, v := range values {
			if !utf8.ValidString(v) {
				continue
			}
			e := i % nEntities
			tr := rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://e/%d", e)),
				rdf.NewIRI(fmt.Sprintf("http://p/%d", i%2)), rdf.NewLiteral(v))
			if err := b.Add(tr); err != nil {
				continue
			}
			want[e] = tokenize.AppendTokens(want[e], v, tokenize.DefaultOptions)
		}
		for e := range want {
			slices.Sort(want[e])
			want[e] = slices.Compact(want[e])
		}
		k, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var img bytes.Buffer
		if err := k.WriteBinary(&img); err != nil {
			t.Fatal(err)
		}
		opened, err := OpenBinary(img.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for label, got := range map[string]*KB{"built": k, "reopened": opened} {
			checkVocabulary(t, got, label)
			for e := range nEntities {
				id, ok := got.Lookup(fmt.Sprintf("http://e/%d", e))
				if !ok {
					continue // the entity got no valid value
				}
				if bag := got.Tokens(id); !slices.Equal(bag, want[e]) {
					t.Fatalf("%s: entity %d bag %q, want %q", label, e, bag, want[e])
				}
			}
		}
	})
}
