package minoaner

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"minoaner/internal/binio"
)

// TestReadPairsCapsPreallocation: a matches section with valid
// checksums that claims 2^28 pairs over a 20k x 20k KB pair — a count
// the KB sizes allow — but carries one pair must fail with
// ErrSnapshotCorrupt without allocating for the claim (2 GB of pairs).
func TestReadPairsCapsPreallocation(t *testing.T) {
	const n = 20000
	var nt strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&nt, "<http://e.example.org/%d> <http://e.example.org/p> \"v%d\" .\n", i, i)
	}
	k, err := LoadKB("big", strings.NewReader(nt.String()))
	if err != nil {
		t.Fatal(err)
	}
	image := func(matches func(*binio.Writer)) []byte {
		var buf bytes.Buffer
		bw := binio.NewWriter(&buf)
		bw.Raw(snapshotMagic[:])
		bw.Uvarint(snapshotVersion)
		bw.Section(snapConfig, func(enc *binio.Writer) { writeConfig(enc, DefaultConfig()) })
		for _, id := range []uint64{snapKB1, snapKB2} {
			if err := writeEmbedded(bw, id, k.kb.WriteBinary); err != nil {
				t.Fatal(err)
			}
		}
		bw.Section(snapStats, func(enc *binio.Writer) {
			for i := 0; i < 8; i++ {
				enc.Int(0)
			}
		})
		bw.Section(snapMatches, matches)
		// Open requires the substrate section but decodes it on demand.
		bw.Section(snapPrepared, func(*binio.Writer) {})
		bw.End()
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := image(func(enc *binio.Writer) {
		for i := 0; i < 5; i++ {
			enc.Int(0) // four empty pair lists, zero H4 discards
		}
	})
	hostile := image(func(enc *binio.Writer) {
		enc.Int(1 << 28)
		enc.Uvarint(0)
		enc.Uvarint(0)
	})
	allocs := func(data []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := OpenIndex(data)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, err
	}
	base, err := allocs(valid)
	if err != nil {
		t.Fatalf("valid image rejected: %v", err)
	}
	got, err := allocs(hostile)
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("hostile pair count: err = %v, want ErrSnapshotCorrupt", err)
	}
	if got > base+1<<20 {
		t.Errorf("hostile pair count allocated %d bytes, %d more than a valid open", got, got-base)
	}
}

// TestLoadIndexKeepsNoImageReference: once the eager load returns, the
// snapshot image it decoded is garbage. A KB still holding its lazy
// section directory would pin the whole image and double a loaded
// index's memory.
func TestLoadIndexKeepsNoImageReference(t *testing.T) {
	b, err := GenerateBenchmark("Restaurant", 3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	built, err := BuildIndex(b.KB1, b.KB2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := SaveIndex(&want, built); err != nil {
		t.Fatal(err)
	}

	img := bytes.Clone(want.Bytes())
	var freed atomic.Bool
	runtime.SetFinalizer(&img[0], func(*byte) { freed.Store(true) })
	ix, err := loadIndexImage(img)
	if err != nil {
		t.Fatal(err)
	}
	img = nil
	for i := 0; i < 50 && !freed.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !freed.Load() {
		t.Fatal("the loaded index still references its snapshot image")
	}
	var got bytes.Buffer
	if err := SaveIndex(&got, ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("index loaded from a since-freed image re-saves differently")
	}
}
