package session

// Persistence: the completed-partition LRU survives restarts as a
// gob+gzip snapshot file guarded by an integrity hash.
//
// The on-disk layout is
//
//	magic    "NDSNAP01"                      (8 bytes)
//	hash     SHA-256 of everything after it  (32 bytes)
//	payload  gzip(gob(snapshotPayload))
//
// The hash covers the compressed payload byte-for-byte, so any damage —
// truncation, a flipped bit, a partial write — is detected before a single
// gob value is decoded, and recovery refuses the file rather than serve a
// corrupted partition (see recovery.go). The format is versioned inside
// the payload; readers reject snapshots written by an incompatible future
// layout instead of misinterpreting them.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"netdecomp/internal/decomp"
)

// snapshotMagic identifies a netdecomp session snapshot file.
const snapshotMagic = "NDSNAP01"

// snapshotVersion is the gob payload schema version. Bump on incompatible
// changes to CacheEntry/Snapshot; readers reject other versions.
const snapshotVersion = 1

// ErrCorruptSnapshot reports a snapshot whose bytes do not match their
// recorded integrity hash (or whose framing is damaged). A store that
// returns it must be treated as absent: boot cold, never serve from it.
var ErrCorruptSnapshot = errors.New("session: corrupt snapshot")

// CacheEntry is one persisted LRU slot: the cache key triple and the
// completed partition it maps to.
type CacheEntry struct {
	Key       Key
	Partition *decomp.Partition
}

// Snapshot is the unit of persistence: the cache entries in LRU order
// (least recently used first, so replaying them in order reproduces the
// recency order), plus an opaque metadata blob the embedding layer may use
// for its own registries — the serving daemon stores its graph and plan
// tables there, the session itself never interprets it.
type Snapshot struct {
	// Entries are the cached results, least recently used first.
	Entries []CacheEntry
	// Meta is owned by the caller (opaque to the session layer).
	Meta []byte
}

// snapshotPayload is the versioned gob envelope inside the file.
type snapshotPayload struct {
	Version int
	Snap    Snapshot
}

// WriteSnapshot writes snap to w in the framed format above.
func WriteSnapshot(w io.Writer, snap Snapshot) error {
	var payload bytes.Buffer
	zw := gzip.NewWriter(&payload)
	if err := gob.NewEncoder(zw).Encode(snapshotPayload{Version: snapshotVersion, Snap: snap}); err != nil {
		return fmt.Errorf("session: encoding snapshot: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("session: compressing snapshot: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	if _, err := io.WriteString(w, snapshotMagic); err != nil {
		return err
	}
	if _, err := w.Write(sum[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// ReadSnapshot reads one framed snapshot, verifying the integrity hash
// before any gob decoding. Damage of any kind — bad magic, truncation, a
// hash mismatch, an undecodable payload — is reported as (or wrapped
// around) ErrCorruptSnapshot; an unexpected payload version is its own
// error (the file is intact, just foreign).
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	header := make([]byte, len(snapshotMagic)+sha256.Size)
	if _, err := io.ReadFull(r, header); err != nil {
		return Snapshot{}, fmt.Errorf("%w: short header: %v", ErrCorruptSnapshot, err)
	}
	if string(header[:len(snapshotMagic)]) != snapshotMagic {
		return Snapshot{}, fmt.Errorf("%w: bad magic %q", ErrCorruptSnapshot, header[:len(snapshotMagic)])
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: reading payload: %v", ErrCorruptSnapshot, err)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], header[len(snapshotMagic):]) {
		return Snapshot{}, fmt.Errorf("%w: integrity hash mismatch", ErrCorruptSnapshot)
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return Snapshot{}, fmt.Errorf("%w: decompressing: %v", ErrCorruptSnapshot, err)
	}
	var p snapshotPayload
	if err := gob.NewDecoder(zr).Decode(&p); err != nil {
		return Snapshot{}, fmt.Errorf("%w: decoding: %v", ErrCorruptSnapshot, err)
	}
	if err := zr.Close(); err != nil {
		return Snapshot{}, fmt.Errorf("%w: decompressing: %v", ErrCorruptSnapshot, err)
	}
	if p.Version != snapshotVersion {
		return Snapshot{}, fmt.Errorf("session: snapshot version %d (want %d)", p.Version, snapshotVersion)
	}
	return p.Snap, nil
}

// ExportCache returns the completed-result cache as persistable entries in
// LRU order (least recently used first). Partitions are freshly
// materialized from the frozen entries, so a snapshot written from the
// export cannot alias live cache state.
func (s *Session) ExportCache() []CacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CacheEntry, 0, s.order.Len())
	for el := s.order.Back(); el != nil; el = el.Prev() {
		ce := el.Value.(*cacheEntry)
		out = append(out, CacheEntry{Key: ce.key, Partition: ce.f.Partition()})
	}
	return out
}

// SeedCache inserts recovered entries into the completed-result cache,
// oldest first, as if they had just completed: the LRU bound applies, so a
// snapshot larger than the cache keeps only its most recent entries.
// Seeding counts as neither hit nor miss; the number of entries actually
// inserted is returned and counted in session.restored. Each partition is
// frozen on the way in; entries with a nil partition, or one that cannot
// be frozen, are skipped.
func (s *Session) SeedCache(entries []CacheEntry) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cacheCap == 0 {
		return 0
	}
	n := 0
	for _, e := range entries {
		f, err := e.Partition.Freeze()
		if err != nil {
			continue
		}
		s.cacheAdd(e.Key, f)
		n++
	}
	s.rec.Counter("session.restored").Add(int64(n))
	return n
}
