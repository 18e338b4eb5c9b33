// Durability for the deployment server: every deployment's state is a
// base snapshot (<StateDir>/<id>.khop) plus a write-ahead log of acked
// churn batches (<StateDir>/wal/<id>/), so an unclean exit loses
// nothing that was acknowledged — Load replays the WAL suffix through
// Engine.Apply, which is deterministic given batch order, reproducing
// the pre-crash state bit for bit.
//
// The ordering contract: a deployment becomes durable (snapshot
// persisted, WAL attached) before its create/restore request is
// acknowledged, and every events batch is WAL-appended before its 200.
// A checkpoint — triggered by compaction, a partial batch, shutdown, or
// the CompactAfter threshold — folds the WAL into a fresh base snapshot
// and truncates the log; checkpoints run under the deployment's write
// lock because the snapshot and the truncation must see the same state
// (the lockscope suppressions at the call sites carry this reason).
//
// WAL failures degrade, not corrupt: if an append fails, the server
// first tries to checkpoint (which makes the batch durable anyway); if
// that fails too, the WAL is closed and the deployment continues
// in-memory only, loudly logged — a wrong replay is strictly worse than
// no replay.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	khop "repro"
	"repro/internal/codec"
	"repro/internal/wal"
)

// durable reports whether the server persists state at all.
func (s *Server) durable() bool { return s.cfg.StateDir != "" }

func (s *Server) snapPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".khop")
}

func (s *Server) walDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "wal", id)
}

func (s *Server) genPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+".gen")
}

func (s *Server) walOptions() wal.Options {
	return wal.Options{Sync: s.cfg.WALSync, SyncEvery: s.cfg.WALSyncEvery}
}

// writeFileAtomic durably replaces path (a file in the state directory)
// with raw: write a temp file, fsync it, rename it over path, then fsync
// the state directory so the rename itself survives a power loss. A
// checkpoint depends on that last step: it truncates the WAL right
// after replacing the base snapshot, and the truncation is durable, so
// an unsynced rename could leave the old base beside an empty log.
func (s *Server) writeFileAtomic(path string, raw []byte) error {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.cfg.StateDir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(raw)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if werr != nil || serr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write %s: %w", filepath.Base(path), errors.Join(werr, serr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	dir, err := os.Open(s.cfg.StateDir)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// removeDurable deletes a deployment's persisted state (snapshot file,
// WAL directory, hand-off generation); best-effort, for DELETE — a file
// that cannot be removed only means a future Load resurrects the
// deployment.
func (s *Server) removeDurable(id string) {
	if !s.durable() {
		return
	}
	os.Remove(s.snapPath(id))
	os.Remove(s.genPath(id))
	wal.Remove(s.walDir(id))
}

// persistGen atomically records a deployment's hand-off generation
// (see fleet.go): a hand-off receiver must remember, across restarts,
// how many ownership transfers its copy has seen, or an old owner that
// crashed before dropping its stale copy could re-ship it and
// overwrite newer state. No-op without a state dir — a non-durable
// node loses the whole copy on crash, generation included — and for
// generation 0, which the file's absence already encodes.
func (s *Server) persistGen(id string, gen uint64) error {
	if !s.durable() || gen == 0 {
		return nil
	}
	return s.writeFileAtomic(s.genPath(id), []byte(strconv.FormatUint(gen, 10)))
}

// loadGen reads a persisted hand-off generation; absent means 0 (never
// handed off), unreadable is logged and treated as 0 — the safe
// direction, since a too-low generation makes this node's copy lose a
// staleness tie, never win one.
func (s *Server) loadGen(id string) uint64 {
	if !s.durable() {
		return 0
	}
	raw, err := os.ReadFile(s.genPath(id))
	if err != nil {
		return 0
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		s.logf("deployment %q: unreadable generation file (treating as 0): %v", id, err)
		return 0
	}
	return gen
}

// makeDurableLocked persists raw as d's base snapshot and attaches a
// fresh, empty WAL (removing any stale log a deleted predecessor left
// behind). Caller holds d.mu for writing and has already registered d —
// the held lock is what keeps the "visible before durable" window
// closed, since every reader and writer serializes behind it.
func (s *Server) makeDurableLocked(d *deployment, raw []byte) error {
	if err := s.writeFileAtomic(s.snapPath(d.id), raw); err != nil {
		return err
	}
	if err := wal.Remove(s.walDir(d.id)); err != nil {
		return err
	}
	l, _, err := wal.Open(s.walDir(d.id), s.walOptions())
	if err != nil {
		return err
	}
	d.wal = l
	return nil
}

// checkpointLocked folds the WAL into a fresh base snapshot: encode the
// current state, persist it, truncate the log. Caller holds d.mu for
// writing — atomicity with concurrent appends is the point (a batch
// that lands between the encode and the truncation would be silently
// dropped from both).
func (s *Server) checkpointLocked(d *deployment) error {
	_, err := s.checkpointBytesLocked(d, false)
	return err
}

// checkpointBytesLocked is checkpointLocked returning the encoded
// snapshot — the blob a migration ships is byte-for-byte the blob the
// checkpoint persisted. wantRaw forces the encode even on a
// non-durable server (a hand-off still needs the bytes).
func (s *Server) checkpointBytesLocked(d *deployment, wantRaw bool) ([]byte, error) {
	if !s.durable() && !wantRaw {
		d.sinceCheckpoint = 0
		return nil, nil
	}
	raw, err := d.snapshotLocked()
	if err != nil {
		return nil, err
	}
	if s.durable() {
		if err := s.writeFileAtomic(s.snapPath(d.id), raw); err != nil {
			return nil, err
		}
		if d.wal != nil {
			if err := d.wal.Reset(); err != nil {
				// The new base is on disk but the old-id-space records are
				// not truncated: replaying them against the new base would
				// corrupt. Degrade to in-memory rather than risk it.
				d.wal.Close()
				d.wal = nil
				return nil, fmt.Errorf("truncating WAL after checkpoint (deployment degraded to in-memory): %w", err)
			}
		}
	}
	d.sinceCheckpoint = 0
	return raw, nil
}

// compactLocked renumbers away the departed slots (codec.Compact) and
// checkpoints. Caller holds d.mu for writing. The persisted snapshot is
// written before d adopts the renumbered engine, so a failure leaves
// both the disk pair and the in-memory state untouched; a WAL that
// cannot be truncated is degraded exactly as in checkpointLocked — the
// old log speaks the pre-compaction id space and must never be
// replayed against the new base.
func (s *Server) compactLocked(d *deployment) (dropped int, err error) {
	snap, err := codec.FromEngine(d.eng, d.mode)
	if err != nil {
		return 0, err
	}
	snap.Orig = d.orig
	c, dropped, err := codec.Compact(snap)
	if err != nil {
		return 0, err
	}
	var eng *khop.Engine
	if dropped > 0 {
		if eng, err = c.Restore(khop.WithParallel(s.cfg.Parallel)); err != nil {
			return 0, fmt.Errorf("adopting compacted snapshot: %w", err)
		}
	}
	if s.durable() {
		var buf bytes.Buffer
		if err := codec.Encode(&buf, c); err != nil {
			return 0, err
		}
		if err := s.writeFileAtomic(s.snapPath(d.id), buf.Bytes()); err != nil {
			return 0, err
		}
	}
	if dropped > 0 {
		d.eng = eng
		d.orig = c.Orig
		d.refresh()
	}
	if d.wal != nil {
		if err := d.wal.Reset(); err != nil {
			d.wal.Close()
			d.wal = nil
			return dropped, fmt.Errorf("truncating WAL after compaction (deployment degraded to in-memory): %w", err)
		}
	}
	d.sinceCheckpoint = 0
	return dropped, nil
}

// Save persists every deployment and truncates its WAL — the graceful
// counterpart of crash recovery, typically called after the
// http.Server's Shutdown has drained in-flight churn. No-op without a
// state directory.
func (s *Server) Save() error {
	if !s.durable() {
		return nil
	}
	s.mu.RLock()
	deps := make([]*deployment, 0, len(s.deps))
	for _, d := range s.deps {
		deps = append(deps, d)
	}
	s.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].id < deps[j].id })
	for _, d := range deps {
		d.mu.Lock()
		//lint:ignore khoplint/lockscope the shutdown checkpoint snapshots and truncates the WAL as one atomic step; a batch landing in between would vanish from both
		err := s.checkpointLocked(d)
		d.mu.Unlock()
		if err != nil {
			return fmt.Errorf("checkpoint %q: %w", d.id, err)
		}
	}
	return nil
}

// Load restores every deployment from the state directory: each
// <id>.khop base snapshot plus its WAL suffix, replayed batch by batch
// through Engine.Apply. A missing directory is a first boot. A
// deployment that fails to load (corrupt snapshot, invalid id,
// unreplayable WAL) is skipped with a logged warning rather than
// aborting startup: one bit-rotted file must not take every healthy
// deployment on the same server down with it.
func (s *Server) Load() error {
	if !s.durable() {
		return nil
	}
	entries, err := os.ReadDir(s.cfg.StateDir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".khop") {
			continue
		}
		path := filepath.Join(s.cfg.StateDir, name)
		id := strings.TrimSuffix(name, ".khop")
		if !idPattern.MatchString(id) {
			s.logf("skipping snapshot %s: invalid deployment id %q", path, id)
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			s.logf("skipping snapshot %s: %v", path, err)
			continue
		}
		if err := s.loadOne(id, raw); err != nil {
			s.logf("skipping snapshot %s: %v", path, err)
			continue
		}
		s.logf("loaded deployment %q from %s", id, path)
	}
	return nil
}

// loadOne restores one deployment from its base snapshot and replays
// its WAL suffix.
func (s *Server) loadOne(id string, raw []byte) error {
	d, err := s.buildRestored(id, raw)
	if err != nil {
		return err
	}
	d.gen = s.loadGen(id)
	replayStart := time.Now()
	l, rec, err := wal.Open(s.walDir(id), s.walOptions())
	if err != nil {
		return fmt.Errorf("opening WAL: %w", err)
	}
	ctx := context.Background()
	replayed := 0
	for i, payload := range rec.Records {
		events, err := codec.DecodeEvents(payload)
		if err != nil {
			l.Close()
			return fmt.Errorf("WAL record %d: %w", i+1, err)
		}
		batch := make([]khop.Event, len(events))
		for j, ev := range events {
			if batch[j], err = ev.Khop(); err != nil {
				l.Close()
				return fmt.Errorf("WAL record %d event %d: %w", i+1, j, err)
			}
		}
		reports, err := d.eng.Apply(ctx, batch...)
		if err != nil {
			// Acked batches replay cleanly by construction (partial
			// batches checkpoint instead of logging); an error here means
			// the snapshot/WAL pair is inconsistent — refuse it whole.
			l.Close()
			return fmt.Errorf("replaying WAL record %d: %w", i+1, err)
		}
		replayed += len(reports)
	}
	replayDur := time.Since(replayStart)
	d.events = replayed
	if replayed > 0 {
		d.refresh()
	}
	d.wal = l
	if err := s.register(d); err != nil {
		l.Close()
		return err
	}
	s.tel.replaySecs.Observe(replayDur)
	s.tel.replayRecords.Add(uint64(len(rec.Records)))
	s.tel.replayEvents.Add(uint64(replayed))
	if rec.TruncatedBytes > 0 || rec.DroppedSegments > 0 {
		s.logf("deployment %q: WAL recovery truncated %d bytes, dropped %d segments (unacked tail)",
			id, rec.TruncatedBytes, rec.DroppedSegments)
	}
	d.mu.RLock()
	sum := d.summaryLocked()
	d.mu.RUnlock()
	d.met.observeStructure(sum)
	s.logf("deployment %q: replayed %d WAL records (%d events)", id, len(rec.Records), replayed)
	return nil
}
