package blocking

import (
	"minoaner/internal/kb"
	"minoaner/internal/parallel"
)

// TokenBlocks applies Token Blocking to the two KBs: every distinct
// token appearing in the values of entities of both KBs becomes a block
// whose members are the entities containing it (paper §III, H2: "H2
// applies Token Blocking to the input KBs, yielding a set of blocks
// B_T"). It joins the token postings of kb1 with those of kb2 bounded
// by them.
func TokenBlocks(kb1, kb2 *kb.KB) *Collection {
	t1 := tokenPostings(kb1, nil)
	t2 := tokenPostings(kb2, &t1)
	return join(kb1.Len(), kb2.Len(), &t1, &t2)
}

// NameBlocks applies Name Blocking: the normalized literal values of the
// k most important attributes of each KB ("entity names") serve as
// blocking keys (paper §III, H1: "H1 treats the entire entity names as
// blocking keys to create a set of blocks B_N"). Like TokenBlocks, it
// joins the two KBs' name postings.
func NameBlocks(kb1, kb2 *kb.KB, k int) *Collection {
	w := parallel.Workers(0)
	n1 := namePostings(kb1, k, w, nil)
	n2 := namePostings(kb2, k, w, &n1)
	return join(kb1.Len(), kb2.Len(), &n1, &n2)
}
