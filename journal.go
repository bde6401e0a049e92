package minoaner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// Journal record format: the one encoding of a JournalEntry outside
// memory. Snapshot section 9 stores one length-prefixed record per
// entry; GET /journal streams each record followed by "\n", and
// replicas decode those lines. A record is a JSON object written
// without HTML escaping, "triples" and "delta" omitted for a delete:
//
//	{"seq":3,"op":"upsert","side":2,"subjects":["http://e/1"],"triples":1,"delta":["<http://e/1> <http://p> \"v\" ."]}
//	{"seq":4,"op":"delete","side":1,"subjects":["http://e/7"]}
//
// The decoder accepts only records that re-encode to their own bytes,
// so an entry has one spelling and a loaded snapshot re-saves bit for
// bit.
type journalRecord struct {
	Seq      uint64   `json:"seq"`
	Op       string   `json:"op"`
	Side     int      `json:"side"`
	Subjects []string `json:"subjects"`
	Triples  int      `json:"triples,omitempty"`
	Delta    []string `json:"delta,omitempty"`
}

// errJournalRecord is wrapped by every record decoding failure.
var errJournalRecord = errors.New("minoaner: malformed journal record")

// The journal op codes' names in records, both ways.
var (
	journalOpNames = map[byte]string{JournalUpsert: "upsert", JournalDelete: "delete"}
	journalOpCodes = map[string]byte{"upsert": JournalUpsert, "delete": JournalDelete}
)

// encodeJournalRecord returns je's record, without a trailing newline.
func encodeJournalRecord(je *JournalEntry) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	// Strings and integers into a buffer: the encode cannot fail.
	_ = enc.Encode(journalRecord{
		Seq:      je.Seq,
		Op:       journalOpNames[je.Op],
		Side:     je.Side,
		Subjects: je.Subjects,
		Triples:  je.Triples,
		Delta:    je.Delta,
	})
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})
}

// decodeJournalRecord parses one record. It fails, with an error
// wrapping errJournalRecord, on anything but a canonical record of a
// valid op and side whose payload matches its op: an upsert carries a
// delta, a delete none.
func decodeJournalRecord(data []byte) (JournalEntry, error) {
	var rec journalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return JournalEntry{}, fmt.Errorf("%w: %v", errJournalRecord, err)
	}
	fail := func(format string, args ...any) (JournalEntry, error) {
		return JournalEntry{}, fmt.Errorf("%w for epoch %d: %s", errJournalRecord, rec.Seq, fmt.Sprintf(format, args...))
	}
	op, known := journalOpCodes[rec.Op]
	je := JournalEntry{Seq: rec.Seq, Op: op, Side: rec.Side, Subjects: rec.Subjects, Triples: rec.Triples, Delta: rec.Delta}
	switch {
	case !known:
		return fail("unknown op %q", rec.Op)
	case je.Side != 1 && je.Side != 2:
		return fail("invalid side %d", je.Side)
	case op == JournalUpsert && len(je.Delta) == 0:
		return fail("an upsert carries no delta payload")
	case op == JournalDelete && len(je.Delta) > 0:
		return fail("a delete carries a delta payload")
	case !bytes.Equal(encodeJournalRecord(&je), data):
		return fail("not in canonical form")
	}
	return je, nil
}
