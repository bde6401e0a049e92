package minoaner

// Journal-shipping read replicas. A Replica bootstraps its full state
// from a primary server's /snapshot endpoint, then tails the primary's
// mutation journal over GET /journal?since=<epoch>, applying each
// entry through Index.Replay. Because replayed entries reproduce the
// primary's mutations exactly — same deltas, same order, same store
// bookkeeping — the replica's matches, statistics, and saved snapshot
// are bit-identical to the primary's at every epoch it reaches; reads
// served from the replica's Index are lock-free as always.
//
// The cursor protocol is the epoch number: the replica asks for
// entries after its current epoch and the primary answers with the
// contiguous tail, or 410 Gone when Compact dropped it. Each response
// also carries the primary's compaction count; when it moves past the
// replica's own, the primary rewrote write-side state the journal
// cannot reproduce (term-table compaction), so the replica falls back
// to a full snapshot resync — the same recovery as a truncated
// journal. Resyncs replace the replica's state in place and readers
// observe them as one atomic epoch switch.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Replica tails a primary's mutation journal into a local Index. Use
// NewReplica, then Bootstrap (or let Run bootstrap), serve Index()
// read-only, and keep Run going in the background. A Replica has one
// writer — its own tailing loop; never mutate Index() directly.
type Replica struct {
	primary      string
	client       *http.Client
	poll         time.Duration
	backoffMax   time.Duration
	snapshotPath string // "" = unlinked temp file
	jitter       uint64 // splitmix64 state; advanced per sleep

	ix atomic.Pointer[Index]

	primaryEpoch atomic.Uint64
	resyncs      atomic.Int64
	applied      atomic.Int64
}

// ReplicaOption customizes NewReplica.
type ReplicaOption func(*Replica)

// WithReplicaClient sets the HTTP client used against the primary
// (default http.DefaultClient). Per-request cancellation comes from
// the Run/Bootstrap context, so a client timeout is not required.
func WithReplicaClient(c *http.Client) ReplicaOption {
	return func(r *Replica) { r.client = c }
}

// WithReplicaPoll sets the journal poll interval when the replica is
// caught up (default 500ms). Polls after a non-empty tail are
// immediate, so a busy primary is followed at replay speed.
func WithReplicaPoll(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.poll = d
		}
	}
}

// WithReplicaBackoffMax caps the exponential backoff between retries
// after errors (default 30s).
func WithReplicaBackoffMax(d time.Duration) ReplicaOption {
	return func(r *Replica) {
		if d > 0 {
			r.backoffMax = d
		}
	}
}

// WithReplicaJitterSeed seeds the deterministic jitter stream that
// spreads poll and backoff sleeps by ±25%, so a fleet of replicas does
// not phase-lock on one primary. Replication results never depend on
// the seed — only sleep timing does.
func WithReplicaJitterSeed(seed uint64) ReplicaOption {
	return func(r *Replica) { r.jitter = seed }
}

// WithReplicaSnapshotPath lands bootstrap snapshots at the given path
// (written atomically: temp file + fsync + rename) and serves the
// index mapped from that file, keeping it around for inspection or a
// warm restart. By default snapshots land in an unlinked temporary
// file the filesystem reclaims once the replica drops the mapping.
func WithReplicaSnapshotPath(path string) ReplicaOption {
	return func(r *Replica) { r.snapshotPath = path }
}

// NewReplica prepares a replica of the primary at the given base URL
// (e.g. "http://primary:8080"). No network traffic happens until
// Bootstrap or Run.
func NewReplica(primaryURL string, opts ...ReplicaOption) (*Replica, error) {
	u, err := url.Parse(primaryURL)
	if err != nil {
		return nil, fmt.Errorf("minoaner: primary URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("minoaner: primary URL %q must be http or https", primaryURL)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("minoaner: primary URL %q has no host", primaryURL)
	}
	r := &Replica{
		primary:    strings.TrimRight(primaryURL, "/"),
		client:     http.DefaultClient,
		poll:       500 * time.Millisecond,
		backoffMax: 30 * time.Second,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r, nil
}

// Index returns the replica's local index — nil until the first
// Bootstrap succeeds. The pointer is stable across resyncs: serve it
// for the replica's whole lifetime.
func (r *Replica) Index() *Index { return r.ix.Load() }

// ReplicaStatus is a point-in-time snapshot of replication progress
// (the /stats and /metrics payload of a replica server).
type ReplicaStatus struct {
	// Primary is the primary's base URL.
	Primary string
	// Epoch is the replica's current epoch (0 before bootstrap).
	Epoch uint64
	// PrimaryEpoch is the primary epoch last observed.
	PrimaryEpoch uint64
	// Lag is PrimaryEpoch - Epoch, clamped at 0: how many mutations
	// the replica still has to replay.
	Lag uint64
	// Resyncs counts completed full-snapshot resyncs (the initial
	// bootstrap not included).
	Resyncs int64
	// Applied counts journal entries applied through Replay.
	Applied int64
}

// Status reports the replica's replication progress.
func (r *Replica) Status() ReplicaStatus {
	st := ReplicaStatus{
		Primary:      r.primary,
		PrimaryEpoch: r.primaryEpoch.Load(),
		Resyncs:      r.resyncs.Load(),
		Applied:      r.applied.Load(),
	}
	if ix := r.ix.Load(); ix != nil {
		st.Epoch = ix.Epoch()
	}
	if st.PrimaryEpoch > st.Epoch {
		st.Lag = st.PrimaryEpoch - st.Epoch
	}
	return st
}

// Bootstrap (re)loads the replica's full state from the primary's
// /snapshot endpoint. The first call creates the index; later calls —
// a resync after ErrJournalTruncated — replace its state in place, so
// a server built over Index() keeps serving and readers observe the
// resync as one atomic epoch switch.
func (r *Replica) Bootstrap(ctx context.Context) (*Index, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.primary+"/snapshot", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("minoaner: primary answered %s to /snapshot", resp.Status)
	}
	loaded, err := r.landSnapshot(resp.Body)
	if err != nil {
		return nil, err
	}
	r.primaryEpoch.Store(loaded.Epoch())
	if cur := r.ix.Load(); cur != nil {
		cur.replaceState(loaded)
		return cur, nil
	}
	r.ix.Store(loaded)
	return loaded, nil
}

// landSnapshot streams the primary's snapshot body to disk and opens
// it mapped, so a bootstrap is O(1) memory however large the snapshot
// — the former in-memory buffering held the entire image (and its
// decoded form) on the heap at once.
func (r *Replica) landSnapshot(body io.Reader) (*Index, error) {
	if r.snapshotPath != "" {
		if err := writeFileAtomic(r.snapshotPath, func(w io.Writer) error {
			_, err := io.Copy(w, body)
			return err
		}); err != nil {
			return nil, fmt.Errorf("minoaner: landing primary snapshot at %s: %w", r.snapshotPath, err)
		}
		ix, err := OpenIndexFile(r.snapshotPath)
		if err != nil {
			return nil, fmt.Errorf("minoaner: loading primary snapshot: %w", err)
		}
		return ix, nil
	}
	f, err := os.CreateTemp("", "minoaner-replica-*.msnp")
	if err != nil {
		return nil, fmt.Errorf("minoaner: landing primary snapshot: %w", err)
	}
	tmp := f.Name()
	// Unlink once mapped (or failed): the mapping keeps the data
	// reachable until the index drops it.
	defer os.Remove(tmp)
	if _, err := io.Copy(f, body); err != nil {
		f.Close()
		return nil, fmt.Errorf("minoaner: landing primary snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("minoaner: landing primary snapshot: %w", err)
	}
	ix, err := OpenIndexFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("minoaner: loading primary snapshot: %w", err)
	}
	return ix, nil
}

// Run tails the primary until the context ends, bootstrapping first if
// Bootstrap has not succeeded yet. Transient errors retry with
// exponential backoff and jitter; ErrJournalTruncated (the primary
// compacted past the cursor) and replay divergence trigger a full
// snapshot resync. Run returns the context's error on cancellation —
// its only way to stop.
func (r *Replica) Run(ctx context.Context) error {
	backoff := r.poll
	for r.ix.Load() == nil {
		if _, err := r.Bootstrap(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if serr := r.sleep(ctx, r.jittered(backoff)); serr != nil {
				return serr
			}
			backoff = r.nextBackoff(backoff)
			continue
		}
		backoff = r.poll
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := r.syncOnce(ctx)
		switch {
		case err == nil:
			backoff = r.poll
			if n == 0 {
				// Caught up: wait one (jittered) poll interval. After a
				// non-empty tail, poll again immediately to drain.
				if serr := r.sleep(ctx, r.jittered(r.poll)); serr != nil {
					return serr
				}
			}
		case errors.Is(err, ErrJournalTruncated):
			if _, berr := r.Bootstrap(ctx); berr != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				if serr := r.sleep(ctx, r.jittered(backoff)); serr != nil {
					return serr
				}
				backoff = r.nextBackoff(backoff)
				continue
			}
			r.resyncs.Add(1)
			backoff = r.poll
		default:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if serr := r.sleep(ctx, r.jittered(backoff)); serr != nil {
				return serr
			}
			backoff = r.nextBackoff(backoff)
		}
	}
}

// syncOnce performs one poll: fetch the journal tail after the
// replica's epoch and replay it entry by entry as the stream arrives.
// It returns how many entries were applied; errors wrapping
// ErrJournalTruncated mean the caller must resync from a snapshot.
func (r *Replica) syncOnce(ctx context.Context) (int, error) {
	ix := r.ix.Load()
	cursor := ix.Epoch()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/journal?since=%d", r.primary, cursor), nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		// Drain (bounded) so the connection is reusable.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if pe, perr := strconv.ParseUint(resp.Header.Get(headerEpoch), 10, 64); perr == nil {
		r.primaryEpoch.Store(pe)
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return 0, fmt.Errorf("%w: primary compacted past cursor %d", ErrJournalTruncated, cursor)
	default:
		return 0, fmt.Errorf("minoaner: primary answered %s to /journal", resp.Status)
	}
	// A compaction count differing from the replica's anchor means the
	// primary's write-side state diverged from anything the journal can
	// reproduce — even when the entry tail itself looks contiguous.
	if pc, perr := strconv.ParseUint(resp.Header.Get(headerCompactions), 10, 64); perr == nil && pc != ix.Compactions() {
		return 0, fmt.Errorf("%w: primary compacted (%d compactions, replica anchored at %d)",
			ErrJournalTruncated, pc, ix.Compactions())
	}
	if pe := r.primaryEpoch.Load(); pe < cursor {
		// The primary answers from an older epoch than ours — it
		// restarted from an earlier snapshot. Converge to its state.
		return 0, fmt.Errorf("%w: primary at epoch %d behind replica epoch %d", ErrJournalTruncated, pe, cursor)
	}
	br := bufio.NewReader(resp.Body)
	applied := 0
	for {
		line, rerr := br.ReadBytes('\n')
		if trimmed := bytes.TrimSpace(line); len(trimmed) > 0 {
			n, aerr := r.applyLine(ctx, ix, trimmed)
			if aerr != nil {
				return applied, aerr
			}
			applied += n
		}
		if rerr == io.EOF {
			return applied, nil
		}
		if rerr != nil {
			return applied, rerr
		}
	}
}

// applyLine decodes one journal record and replays it.
func (r *Replica) applyLine(ctx context.Context, ix *Index, line []byte) (int, error) {
	je, err := decodeJournalRecord(line)
	if err != nil {
		return 0, err
	}
	n, err := ix.Replay(ctx, []JournalEntry{je})
	r.applied.Add(int64(n))
	return n, err
}

// nextBackoff doubles the delay up to the configured cap.
func (r *Replica) nextBackoff(d time.Duration) time.Duration {
	d *= 2
	if d > r.backoffMax {
		d = r.backoffMax
	}
	return d
}

// jittered spreads d over [0.75d, 1.25d) using a splitmix64 stream —
// deterministic from the seed, so replication never draws on
// wall-clock entropy, yet distinct seeds de-synchronize a fleet.
// Called only from the Run goroutine.
func (r *Replica) jittered(d time.Duration) time.Duration {
	r.jitter += 0x9e3779b97f4a7c15
	z := r.jitter
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	span := int64(d) / 2
	if span <= 0 {
		return d
	}
	return d - time.Duration(span/2) + time.Duration(int64(z%uint64(span)))
}

// sleep waits d or until the context ends, releasing the timer either
// way.
func (r *Replica) sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
