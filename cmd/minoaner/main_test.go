package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"minoaner"
)

// -cache must not serve a parse of what the file used to hold: a source
// rewritten after its .mkb was cached is parsed again.
func TestLoadCachedReparsesRewrittenSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.nt")
	first := "<http://e/a> <http://v/name> \"Alpha\" .\n"
	if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
		t.Fatal(err)
	}
	// An hour old, so the cache written below is newer whatever the
	// file system's timestamp granularity.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	parses := 0
	load := func() *minoaner.KB {
		t.Helper()
		kb, _, err := loadCached("KB", path, func(name, path string) (*minoaner.KB, int, error) {
			parses++
			return loadPlain(name, path)
		})
		if err != nil {
			t.Fatal(err)
		}
		return kb
	}

	if kb := load(); parses != 1 || kb.Stats().Entities != 1 {
		t.Fatalf("first run: %d parses, %d entities; want 1 and 1", parses, kb.Stats().Entities)
	}
	if kb := load(); parses != 1 || kb.Stats().Entities != 1 {
		t.Fatalf("second run: %d parses, %d entities; want the cached KB", parses, kb.Stats().Entities)
	}

	second := first + "<http://e/b> <http://v/name> \"Beta\" .\n"
	if err := os.WriteFile(path, []byte(second), 0o644); err != nil {
		t.Fatal(err)
	}
	kb := load()
	if parses != 2 {
		t.Fatalf("after the rewrite: %d parses, want 2 (the stale cache was reused)", parses)
	}
	if uris := kb.URIs(); len(uris) != 2 || uris[1] != "http://e/b" {
		t.Fatalf("after the rewrite: entities %v, want the new http://e/b beside http://e/a", uris)
	}
}

// -cache must not serve a lenient parse to a strict run: a -lenient
// load that skipped a malformed line writes no .mkb, so the next run
// without -lenient parses the file and reports the line.
func TestLoadCachedSkipsLenientParse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.nt")
	doc := "<http://e/a> <http://v/name> \"Alpha\" .\nnot a triple\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	// An hour old, so a cache written below would count as fresh.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}

	kb, skipped, err := loadCached("KB", path, loadLenient)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || kb.Stats().Entities != 1 {
		t.Fatalf("lenient run: %d skipped, %d entities; want 1 and 1", skipped, kb.Stats().Entities)
	}
	if _, _, err := loadCached("KB", path, loadPlain); err == nil {
		t.Fatal("strict run after a lenient one loaded the file; want the parse error")
	}
}
