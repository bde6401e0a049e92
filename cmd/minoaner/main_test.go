package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

// -cache checks content, not timestamps: a source replaced by other
// bytes carrying an older modification time (cp -p, rsync -t, tar x)
// is parsed again, not served from the cache of what it used to hold.
func TestLoadCachedReparsesOlderDatedSource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.nt")
	first := "<http://e/a> <http://v/name> \"Alpha\" .\n"
	if err := os.WriteFile(path, []byte(first), 0o644); err != nil {
		t.Fatal(err)
	}
	parses := 0
	load := func() *minoaner.KB {
		t.Helper()
		var kb *minoaner.KB
		captureStderr(t, func() {
			var err error
			kb, _, err = loadCached("KB", path, func(name, path string) (*minoaner.KB, int, error) {
				parses++
				return loadPlain(name, path)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
		return kb
	}
	load()
	if kb := load(); parses != 1 || kb.Stats().Entities != 1 {
		t.Fatalf("second run: %d parses, %d entities; want the cached KB", parses, kb.Stats().Entities)
	}

	// Same size, other bytes, dated a day before the cache was written.
	second := strings.Replace(first, "Alpha", "Omega", 1)
	if err := os.WriteFile(path, []byte(second), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	kb := load()
	if parses != 2 {
		t.Fatalf("after the older-dated replacement: %d parses, want 2 (the stale cache was reused)", parses)
	}
	fresh, _, err := loadPlain("KB", path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeKB(t, kb), encodeKB(t, fresh)) {
		t.Fatal("the KB loaded after the replacement differs from a fresh parse")
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

// -cache must not trust an .mkb it cannot decode, however fresh: a
// version-1 image (the unsectioned format older builds wrote) is
// reported as unusable, the source is parsed again, and the loaded KB
// is the fresh parse.
func TestLoadCachedReparsesUndecodableCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kb.nt")
	doc := "<http://e/a> <http://v/name> \"Alpha\" .\n<http://e/a> <http://v/rel> <http://e/b> .\n<http://e/b> <http://v/name> \"Beta\" .\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	// An hour old, so the cache written below is newer.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	// Magic, version 1, then the name and triple count of a v1 header.
	if err := os.WriteFile(path+".mkb", []byte("MKB1\x01\x02KB\x03"), 0o644); err != nil {
		t.Fatal(err)
	}

	var kb *minoaner.KB
	stderr := captureStderr(t, func() {
		var err error
		if kb, _, err = loadCached("KB", path, loadPlain); err != nil {
			t.Fatal(err)
		}
	})
	if want := "cache " + path + ".mkb unusable ("; !strings.Contains(stderr, want) || !strings.Contains(stderr, "); re-parsing") {
		t.Fatalf("stderr = %q, want the unusable-cache report", stderr)
	}
	fresh, _, err := loadPlain("KB", path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeKB(t, kb), encodeKB(t, fresh)) {
		t.Fatal("the KB loaded past an undecodable cache differs from a fresh parse")
	}
	// The parse replaced the cache, so the next run loads it.
	captureStderr(t, func() {
		cached, _, err := loadCached("KB", path, func(string, string) (*minoaner.KB, int, error) {
			t.Fatal("the rewritten cache was not used")
			return nil, 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeKB(t, cached), encodeKB(t, fresh)) {
			t.Fatal("the rewritten cache differs from a fresh parse")
		}
	})
}

// captureStderr runs fn with os.Stderr redirected and returns what fn
// wrote there.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func encodeKB(t *testing.T, kb *minoaner.KB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := kb.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
