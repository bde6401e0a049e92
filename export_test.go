package minoaner

// Test hooks for the external test package.

// SnapshotVersion is the MSNP format version SaveIndex writes.
const SnapshotVersion = snapshotVersion

var (
	EncodeJournalRecord = encodeJournalRecord
	DecodeJournalRecord = decodeJournalRecord
	ErrJournalRecord    = errJournalRecord
)
