package kb

import (
	"context"
	"slices"
	"strings"

	"minoaner/internal/parallel"
	"minoaner/internal/tokenize"
)

// Token bags over one vocabulary. Every KB holds its tokens once, in
// vocab: the distinct tokens of all its bags, ascending, and nothing
// else. An entity's bag is the sorted, distinct IDs of its tokens,
// where a token's ID is its position in vocab, so ID order is string
// order wherever keys are ordered. A token string is hashed once per
// occurrence, when the tokenizer meets it; vocabularies and bags are
// merged by sorting and by walking sorted lists, never by hashing
// again.

// tokenizer turns entities into bags of local token IDs: indices into
// its own dictionary of the distinct tokens it has met, in
// first-appearance order.
type tokenizer struct {
	dict map[string]int32
	strs []string // local ID -> token
	// mark[id] is the 1-based number of the last bag that took the
	// token, which dedups a bag without sorting it.
	mark    []int32
	ids     []int32 // the bags, concatenated
	ends    []int32 // ends[i]: where bag i ends in ids
	scratch []string
}

func newTokenizer() *tokenizer { return &tokenizer{dict: make(map[string]int32)} }

// add appends the bag of one entity: the tokens of all its attribute
// values, each once, in first-appearance order.
func (tz *tokenizer) add(e *Entity) {
	toks := tz.scratch[:0]
	for _, av := range e.Attrs {
		toks = tokenize.AppendTokens(toks, av.Value, tokenize.DefaultOptions)
	}
	bag := int32(len(tz.ends)) + 1
	for _, tok := range toks {
		id, ok := tz.dict[tok]
		if !ok {
			id = int32(len(tz.strs))
			tz.dict[tok] = id
			tz.strs = append(tz.strs, tok)
			tz.mark = append(tz.mark, 0)
		}
		if tz.mark[id] != bag {
			tz.mark[id] = bag
			tz.ids = append(tz.ids, id)
		}
	}
	tz.ends = append(tz.ends, int32(len(tz.ids)))
	tz.scratch = toks
}

// addDecoded appends one token, as a KB image spells it, to the bag
// being read; endBag closes that bag. The image's bags are ascending
// and distinct, so nothing is deduplicated.
func (tz *tokenizer) addDecoded(tok []byte) {
	id, ok := tz.dict[string(tok)]
	if !ok {
		s := string(tok)
		id = int32(len(tz.strs))
		tz.dict[s] = id
		tz.strs = append(tz.strs, s)
	}
	tz.ids = append(tz.ids, id)
}

func (tz *tokenizer) endBag() { tz.ends = append(tz.ends, int32(len(tz.ids))) }

// writeBags translates the tokenizer's bags through local (its
// vocabulary map) into out, which has room for all of them, sorts each
// and hands bag b to set; an empty bag is handed over as nil.
func (tz *tokenizer) writeBags(local, out []int32, set func(b int, bag []int32)) {
	lo := int32(0)
	for b, hi := range tz.ends {
		ids := tz.ids[lo:hi]
		lo = hi
		if len(ids) == 0 {
			set(b, nil)
			continue
		}
		bag := out[:len(ids):len(ids)]
		out = out[len(ids):]
		for j, id := range ids {
			bag[j] = local[id]
		}
		slices.Sort(bag)
		set(b, bag)
	}
}

// vocabMerge is the vocabulary of an assembly: the previous
// vocabulary's surviving tokens merged with the tokenizers' new ones.
type vocabMerge struct {
	vocab []string
	// same: vocab is the previous vocabulary itself, IDs unchanged.
	same bool
	// prevID maps a previous ID to its new one; nil when same.
	prevID []int32
	// local[w] maps tokenizer w's local IDs to vocabulary IDs.
	local [][]int32
}

// mergeVocab derives the vocabulary of the tokens the surviving bags
// hold (used[id] for an ID of prev) and the tokens the tokenizers met.
func mergeVocab(prev []string, used []bool, tzs []*tokenizer) vocabMerge {
	type entry struct {
		tok   string
		w, id int32
	}
	n := 0
	for _, tz := range tzs {
		n += len(tz.strs)
	}
	met := make([]entry, 0, n)
	for w, tz := range tzs {
		for id, tok := range tz.strs {
			met = append(met, entry{tok: tok, w: int32(w), id: int32(id)})
		}
	}
	slices.SortFunc(met, func(a, b entry) int { return strings.Compare(a.tok, b.tok) })

	m := vocabMerge{local: make([][]int32, len(tzs))}
	for w, tz := range tzs {
		m.local[w] = make([]int32, len(tz.strs))
	}
	// The merge walk: previous tokens that survive or are met again,
	// and the tokens met for the first time, in one ascending list.
	m.vocab = make([]string, 0, len(prev)+len(met))
	m.prevID = make([]int32, len(prev))
	var fresh []int // vocabulary IDs of first-time tokens
	i := 0
	for j := 0; j < len(met) || i < len(prev); {
		switch {
		case j == len(met) || i < len(prev) && prev[i] < met[j].tok:
			m.prevID[i] = -1
			if used[i] {
				m.prevID[i] = int32(len(m.vocab))
				m.vocab = append(m.vocab, prev[i])
			}
			i++
		default:
			tok := met[j].tok
			id := int32(len(m.vocab))
			if i < len(prev) && prev[i] == tok {
				m.prevID[i] = id
				m.vocab = append(m.vocab, prev[i])
				i++
			} else {
				fresh = append(fresh, len(m.vocab))
				m.vocab = append(m.vocab, tok)
			}
			for ; j < len(met) && met[j].tok == tok; j++ {
				m.local[met[j].w][met[j].id] = id
			}
		}
	}
	if len(fresh) == 0 && len(m.vocab) == len(prev) {
		// Every previous token survives and none is new: keep the
		// previous vocabulary, IDs and all.
		m.vocab, m.same, m.prevID = prev, true, nil
		return m
	}
	// First-time tokens are substrings of attribute values; copy them
	// into one slab, so the vocabulary pins no value.
	size := 0
	for _, v := range fresh {
		size += len(m.vocab[v])
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, v := range fresh {
		sb.WriteString(m.vocab[v])
	}
	slab := sb.String()
	for _, v := range fresh {
		n := len(m.vocab[v])
		m.vocab[v], slab = slab[:n], slab[n:]
	}
	return m
}

// finishTokens is assembly pass 3: the token vocabulary, every
// entity's bag and their total. Entities are tokenized in parallel,
// each worker a contiguous entity range with its own dictionary; the
// dictionaries merge into the vocabulary, and every bag is translated
// into vocabulary IDs and sorted, all bags in one slab.
//
// prev, when non-nil, is the previous assembly of an overlapping ref
// set (Store.Assemble): entities whose attribute values are unchanged
// keep its bags, and only changed descriptions are tokenized. When the
// vocabulary is unchanged the kept bags are shared; otherwise they are
// renumbered, which keeps their order (both vocabularies ascend). The
// result is the from-scratch one either way: bags depend only on the
// value list, and the vocabulary only on the bags.
func finishTokens(kb *KB, workers int, prev *KB) {
	var fresh []int32 // the entities to tokenize
	var kept []int32  // per entity, the prev entity whose bag it keeps, or -1
	var prevVocab []string
	var used []bool // per prev token, whether a kept bag holds it
	if prev == nil {
		fresh = make([]int32, len(kb.entities))
		for i := range fresh {
			fresh[i] = int32(i)
		}
	} else {
		prevVocab = prev.vocab
		used = make([]bool, len(prevVocab))
		kept = make([]int32, len(kb.entities))
		prevURIs := prev.uris()
		for i := range kb.entities {
			e := &kb.entities[i]
			kept[i] = -1
			if pid, ok := prevURIs[e.URI]; ok && sameAttrValues(prev.entities[pid].Attrs, e.Attrs) {
				kept[i] = int32(pid)
				for _, t := range prev.entities[pid].Tokens {
					used[t] = true
				}
				continue
			}
			fresh = append(fresh, int32(i))
		}
	}
	n := len(fresh)
	entity := func(k int) *Entity { return &kb.entities[fresh[k]] }

	workers = max(min(workers, n), 1)
	tzs := make([]*tokenizer, workers)
	width := (n + workers - 1) / workers
	_ = parallel.For(context.Background(), workers, workers, func(w, _, _ int) error {
		tz := newTokenizer()
		for k := w * width; k < min((w+1)*width, n); k++ {
			tz.add(entity(k))
		}
		tzs[w] = tz
		return nil
	})
	m := mergeVocab(prevVocab, used, tzs)
	kb.vocab = m.vocab

	// One slab holds every bag written here: the tokenized ones, and the
	// kept ones when they need renumbering.
	total := 0
	for _, tz := range tzs {
		total += len(tz.ids)
	}
	if !m.same {
		for _, pid := range kept {
			if pid >= 0 {
				total += len(prev.entities[pid].Tokens)
			}
		}
	}
	slab := make([]int32, total)
	take := func(n int) []int32 {
		bag := slab[:n:n]
		slab = slab[n:]
		return bag
	}
	for i, pid := range kept {
		if pid < 0 {
			continue
		}
		old := prev.entities[pid].Tokens
		if m.same {
			kb.entities[i].Tokens = old
			continue
		}
		if len(old) > 0 {
			bag := take(len(old))
			for j, t := range old {
				bag[j] = m.prevID[t]
			}
			kb.entities[i].Tokens = bag
		}
	}
	outs := make([][]int32, workers)
	for w, tz := range tzs {
		outs[w] = take(len(tz.ids))
	}
	_ = parallel.For(context.Background(), workers, workers, func(w, _, _ int) error {
		tzs[w].writeBags(m.local[w], outs[w], func(b int, bag []int32) { entity(w*width + b).Tokens = bag })
		return nil
	})

	kb.totalTokens = 0
	for i := range kb.entities {
		kb.totalTokens += len(kb.entities[i].Tokens)
	}
}

// sameAttrValues reports whether two attribute lists carry the same
// values in the same order — the exact condition under which the
// derived token bag is unchanged (tokens depend only on values).
func sameAttrValues(a, b []AttrValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// TokenIDs returns an entity's token bag: the sorted, distinct
// vocabulary IDs of the tokens of its attribute values (see
// Vocabulary). The slice is shared; callers must not modify it.
func (kb *KB) TokenIDs(id EntityID) []int32 {
	kb.materialize()
	return kb.entities[id].Tokens
}

// Vocabulary returns the KB's token vocabulary: every token some
// entity's bag holds, once, in ascending order. A token's ID is its
// position. The slice is shared; callers must not modify it.
func (kb *KB) Vocabulary() []string {
	kb.materialize()
	return kb.vocab
}

// Tokens returns an entity's token bag as strings, ascending, in a
// fresh slice.
//
//minoaner:keep the kb, blocking, core and datagen tests read bags as strings
func (kb *KB) Tokens(id EntityID) []string {
	kb.materialize()
	bag := kb.entities[id].Tokens
	if len(bag) == 0 {
		return nil
	}
	out := make([]string, len(bag))
	for i, t := range bag {
		out[i] = kb.vocab[t]
	}
	return out
}
