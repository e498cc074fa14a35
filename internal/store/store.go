// Package store is balsabmd's durable side: a content-addressed
// artifact cache plus a journaled job log, both plain files under one
// data directory, standard library only. It is what lets a restarted
// daemon start warm — completed synthesis results survive on disk,
// keyed by the same canonical-form sha256 keys the in-memory dedup
// cache uses — and lets interrupted jobs resume from their last
// completed pipeline stage instead of starting over.
//
// Layout under the data directory:
//
//	layout-version               the store format number (one line);
//	                             written on create, checked on Open so
//	                             a future format change fails loudly
//	                             instead of silently mis-reading
//	artifacts/<hh>/<sha256>      result blobs, named by the sha256 of
//	                             their content (hh = first two hex
//	                             digits); verified on read by re-hashing
//	refs/<sha256(key)>           one line: the content hash a canonical
//	                             job key resolves to
//	ctlrefs/<sha256(key)>        same indirection at controller grain:
//	                             the content hash a canonical controller
//	                             subtree key (mode, audit flag, subtree
//	                             sha256) resolves to — the durable tier
//	                             behind incremental resynthesis
//	checkpoints/<sha256(key)>/<stage>
//	                             per-stage checkpoint payloads of
//	                             in-flight jobs, deleted on completion
//	journal.jsonl                append-only, fsync'd job log (one JSON
//	                             record per line), compacted on open
//
// Every write is atomic (temp file + rename, fsync before rename), so
// a crash mid-write never corrupts an existing entry; at worst it
// leaves a stray temp file, swept on open. Blobs are exactly the
// api.Encode bytes of a job result, which is what makes a disk-served
// result byte-identical to a freshly computed one.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Store is one open data directory. All methods are safe for
// concurrent use.
type Store struct {
	dir      string
	maxBytes int64 // artifact size bound for GC; 0 = unbounded

	mu       sync.Mutex
	journal  *journal
	jobs     []JobRecord // replayed from the journal at Open, in submission order
	blobSize int64       // running total of artifact bytes

	corrupt int64 // artifacts that failed read-back verification

	// ctlMu serializes PutController's check-then-write, so the first
	// writer of a controller key wins. It is separate from mu because
	// a put may run GC, which takes mu.
	ctlMu sync.Mutex
}

// LayoutVersion is the on-disk format number the package reads and
// writes. Version 2 added the controller-grain ctlrefs/ namespace —
// additive over version 1, so v1 directories (which predate the
// marker file) upgrade in place on Open.
const LayoutVersion = "2"

// Open opens (creating if needed) the store rooted at dir, replays and
// compacts its journal, sweeps stray temp files and runs the size-bound
// GC. maxBytes bounds the artifact cache (0 = unbounded). A data
// directory written by an incompatible store layout is refused.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := checkLayout(dir); err != nil {
		return nil, err
	}
	for _, sub := range []string{"artifacts", "refs", "ctlrefs", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s := &Store{dir: dir, maxBytes: maxBytes}
	s.sweepTemp()
	j, jobs, err := openJournal(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	s.journal, s.jobs = j, jobs
	size, err := s.artifactBytes()
	if err != nil {
		j.close()
		return nil, err
	}
	s.blobSize = size
	if _, err := s.GC(); err != nil {
		j.close()
		return nil, err
	}
	return s, nil
}

// Close fsyncs and closes the journal. Artifacts need no teardown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.close()
	s.journal = nil
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Jobs returns the jobs replayed from the journal at Open, in
// submission order. The slice is the store's own; callers must not
// modify it.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs
}

// keyHash addresses refs and checkpoint directories: the sha256 of the
// full canonical job key (which itself embeds the canonical-form
// design digest).
func keyHash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

func contentHash(blob []byte) string {
	h := sha256.Sum256(blob)
	return hex.EncodeToString(h[:])
}

// ContentHash returns the hex sha256 a blob would be stored under —
// the journal records it alongside completions so a replayed job can
// name its artifact.
func ContentHash(blob []byte) string { return contentHash(blob) }

// SetMaxBytes adjusts the artifact size bound used by subsequent GC
// passes (0 = unbounded).
func (s *Store) SetMaxBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.maxBytes = n
}

func (s *Store) blobPath(ch string) string {
	return filepath.Join(s.dir, "artifacts", ch[:2], ch)
}

// checkLayout enforces the layout-version marker: written when absent
// (new directories, and v1 directories from before the marker existed
// — the v2 layout is additive over v1), refused when it names a
// version this package does not read.
func checkLayout(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, "layout-version")
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := writeAtomic(path, []byte(LayoutVersion+"\n")); err != nil {
			return fmt.Errorf("store: writing layout-version: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: reading layout-version: %w", err)
	}
	if got := strings.TrimSpace(string(data)); got != LayoutVersion {
		return fmt.Errorf("store: %s: layout version %q, this build reads %q — refusing to open", dir, got, LayoutVersion)
	}
	return nil
}

func (s *Store) refPath(key string) string {
	return filepath.Join(s.dir, "refs", keyHash(key))
}

// ctlRefPath addresses the controller-grain ref namespace.
func (s *Store) ctlRefPath(key string) string {
	return filepath.Join(s.dir, "ctlrefs", keyHash(key))
}

// writeAtomic writes data to path via a temp file in the same
// directory, fsyncs it, and renames it into place. Concurrent writers
// of the same path both succeed; last rename wins with a complete
// file either way.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// putBlob lands a blob content-addressed in artifacts/ and points the
// given ref file at it; identical blobs under different refs share one
// artifact. Exceeding the size bound triggers GC.
func (s *Store) putBlob(refPath string, blob []byte) (string, error) {
	ch := contentHash(blob)
	path := s.blobPath(ch)
	if _, err := os.Stat(path); err != nil {
		if err := writeAtomic(path, blob); err != nil {
			return "", fmt.Errorf("store: writing artifact: %w", err)
		}
		s.mu.Lock()
		s.blobSize += int64(len(blob))
		over := s.maxBytes > 0 && s.blobSize > s.maxBytes
		s.mu.Unlock()
		if over {
			if _, err := s.GC(); err != nil {
				return "", err
			}
		}
	}
	if err := writeAtomic(refPath, []byte(ch+"\n")); err != nil {
		return "", fmt.Errorf("store: writing ref: %w", err)
	}
	return ch, nil
}

// getBlob resolves a ref file to its artifact. A missing ref returns
// (nil, nil). A present blob is re-hashed before it is returned; on a
// mismatch the corrupt entry is removed (so the next run recomputes
// it) and an error is returned.
func (s *Store) getBlob(refPath string) ([]byte, error) {
	ref, err := os.ReadFile(refPath)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading ref: %w", err)
	}
	ch := strings.TrimSpace(string(ref))
	blob, err := os.ReadFile(s.blobPath(ch))
	if err != nil {
		if os.IsNotExist(err) {
			// Blob evicted by GC (or lost): drop the dangling ref.
			os.Remove(refPath)
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading artifact: %w", err)
	}
	if got := contentHash(blob); got != ch {
		s.mu.Lock()
		s.corrupt++
		s.mu.Unlock()
		os.Remove(s.blobPath(ch))
		os.Remove(refPath)
		return nil, fmt.Errorf("store: artifact %s corrupt: content hashes to %s", ch, got)
	}
	return blob, nil
}

// PutResult stores one completed job result blob under its canonical
// key and returns the content hash. The blob lands content-addressed
// in artifacts/ and the key's ref points at it; identical results
// under different keys share one blob. Exceeding the size bound
// triggers GC.
func (s *Store) PutResult(key string, blob []byte) (string, error) {
	return s.putBlob(s.refPath(key), blob)
}

// GetResult looks a canonical key up in the artifact cache. A missing
// key returns (nil, nil); see getBlob for read-back verification.
func (s *Store) GetResult(key string) ([]byte, error) {
	return s.getBlob(s.refPath(key))
}

// PutController stores one synthesized controller blob under its
// canonical subtree key (see flow.ControllerKey). The first writer
// wins: when the key's ref already resolves to a present blob the put
// is skipped. Two jobs that miss the same key concurrently synthesize
// equivalent controllers whose blobs still differ byte for byte (the
// seeding component's wire names differ), and a second ref write would
// orphan the first blob. A dangling ref is overwritten. Best-effort,
// like a checkpoint save: a failed write costs one resynthesis on the
// next run, never correctness — so errors are swallowed and the
// signature satisfies flow.ControllerCache directly.
func (s *Store) PutController(key string, blob []byte) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	refPath := s.ctlRefPath(key)
	if ref, err := os.ReadFile(refPath); err == nil {
		if ch := strings.TrimSpace(string(ref)); len(ch) == sha256.Size*2 {
			if _, err := os.Stat(s.blobPath(ch)); err == nil {
				return
			}
		}
	}
	_, _ = s.putBlob(refPath, blob)
}

// GetController looks a canonical controller subtree key up in the
// artifact cache. Read errors (including a corrupt blob, which getBlob
// removes for self-healing) report as a miss; the signature satisfies
// flow.ControllerCache directly.
func (s *Store) GetController(key string) ([]byte, bool) {
	blob, err := s.getBlob(s.ctlRefPath(key))
	if err != nil || blob == nil {
		return nil, false
	}
	return blob, true
}

// blobInfo is one artifact on disk, as seen by GC and Verify.
type blobInfo struct {
	hash  string
	size  int64
	mtime int64 // unix nanos; GC eviction order
}

// listBlobs walks artifacts/ in deterministic (hash) order.
func (s *Store) listBlobs() ([]blobInfo, error) {
	var out []blobInfo
	root := filepath.Join(s.dir, "artifacts")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, blobInfo{
			hash:  d.Name(),
			size:  info.Size(),
			mtime: info.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].hash < out[k].hash })
	return out, nil
}

func (s *Store) artifactBytes() (int64, error) {
	blobs, err := s.listBlobs()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, b := range blobs {
		total += b.size
	}
	return total, nil
}

// GCResult reports one garbage-collection pass.
type GCResult struct {
	Evicted      int   `json:"evicted"`      // blobs removed
	FreedBytes   int64 `json:"freedBytes"`   // bytes reclaimed
	DanglingRefs int   `json:"danglingRefs"` // refs to missing blobs removed
	LiveBlobs    int   `json:"liveBlobs"`
	LiveBytes    int64 `json:"liveBytes"`
}

// GC enforces the artifact size bound: oldest blobs (by mtime, hash as
// a deterministic tie-break) are evicted until the total is within
// maxBytes, then refs pointing at missing blobs are dropped. With no
// bound it only sweeps dangling refs.
func (s *Store) GC() (GCResult, error) {
	var res GCResult
	s.mu.Lock()
	maxBytes := s.maxBytes
	s.mu.Unlock()
	blobs, err := s.listBlobs()
	if err != nil {
		return res, err
	}
	var total int64
	for _, b := range blobs {
		total += b.size
	}
	if maxBytes > 0 && total > maxBytes {
		order := append([]blobInfo(nil), blobs...)
		sort.Slice(order, func(i, k int) bool {
			if order[i].mtime != order[k].mtime {
				return order[i].mtime < order[k].mtime
			}
			return order[i].hash < order[k].hash
		})
		for _, b := range order {
			if total <= maxBytes {
				break
			}
			if err := os.Remove(s.blobPath(b.hash)); err != nil && !os.IsNotExist(err) {
				return res, fmt.Errorf("store: evicting %s: %w", b.hash, err)
			}
			total -= b.size
			res.Evicted++
			res.FreedBytes += b.size
		}
	}
	live := map[string]bool{}
	blobs, err = s.listBlobs()
	if err != nil {
		return res, err
	}
	for _, b := range blobs {
		live[b.hash] = true
		res.LiveBlobs++
		res.LiveBytes += b.size
	}
	for _, ns := range []string{"refs", "ctlrefs"} {
		refs, err := os.ReadDir(filepath.Join(s.dir, ns))
		if err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
		for _, e := range refs {
			path := filepath.Join(s.dir, ns, e.Name())
			data, err := os.ReadFile(path)
			if err != nil {
				continue
			}
			if !live[strings.TrimSpace(string(data))] {
				os.Remove(path)
				res.DanglingRefs++
			}
		}
	}
	s.mu.Lock()
	s.blobSize = res.LiveBytes
	s.mu.Unlock()
	return res, nil
}

// VerifyResult reports an integrity pass over every artifact.
type VerifyResult struct {
	Checked int      `json:"checked"`
	Corrupt []string `json:"corrupt,omitempty"` // content hashes that failed re-hashing
}

// Verify re-hashes every artifact against its file name. Corrupt blobs
// are reported, not removed — `balsabm cache verify` surfaces them and
// GetResult self-heals on the next read.
func (s *Store) Verify() (VerifyResult, error) {
	var res VerifyResult
	blobs, err := s.listBlobs()
	if err != nil {
		return res, err
	}
	for _, b := range blobs {
		data, err := os.ReadFile(s.blobPath(b.hash))
		if err != nil {
			return res, fmt.Errorf("store: %w", err)
		}
		res.Checked++
		if contentHash(data) != b.hash {
			res.Corrupt = append(res.Corrupt, b.hash)
		}
	}
	return res, nil
}

// Stats summarizes the store for `balsabm cache stats` and /metrics.
type Stats struct {
	Artifacts      int   `json:"artifacts"`
	ArtifactBytes  int64 `json:"artifactBytes"`
	Refs           int   `json:"refs"`
	ControllerRefs int   `json:"controllerRefs"` // controller-grain refs (incremental resynthesis)
	Jobs           int   `json:"jobs"`           // journal jobs at Open
	Interrupted    int   `json:"interrupted"`    // of those, non-terminal (resumable)
	Checkpoints    int   `json:"checkpoints"`    // stage payloads currently on disk
	Corrupt        int64 `json:"corrupt"`        // read-back verification failures this session
}

// Stats walks the store and summarizes it.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	blobs, err := s.listBlobs()
	if err != nil {
		return st, err
	}
	for _, b := range blobs {
		st.Artifacts++
		st.ArtifactBytes += b.size
	}
	refs, err := os.ReadDir(filepath.Join(s.dir, "refs"))
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	st.Refs = len(refs)
	ctlrefs, err := os.ReadDir(filepath.Join(s.dir, "ctlrefs"))
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	st.ControllerRefs = len(ctlrefs)
	err = filepath.WalkDir(filepath.Join(s.dir, "checkpoints"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			st.Checkpoints++
		}
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	st.Jobs = len(s.jobs)
	for _, j := range s.jobs {
		if !j.Terminal() {
			st.Interrupted++
		}
	}
	st.Corrupt = s.corrupt
	s.mu.Unlock()
	return st, nil
}

// sweepTemp removes temp files left by writes interrupted before their
// rename.
func (s *Store) sweepTemp() {
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}

// ---------------------------------------------------------------------
// Checkpoints: per-stage payloads of in-flight jobs, keyed like
// artifacts by the canonical job key.

// Checkpoints returns the checkpoint directory for one canonical job
// key. It satisfies the flow's CheckpointSink interface, so it can be
// handed to a run as Options.Checkpoint directly.
func (s *Store) Checkpoints(key string) *CheckpointDir {
	return &CheckpointDir{dir: filepath.Join(s.dir, "checkpoints", keyHash(key))}
}

// DeleteCheckpoints removes every stage payload for a key — called
// when a job completes and its result is in the artifact cache, which
// supersedes any partial state.
func (s *Store) DeleteCheckpoints(key string) error {
	return os.RemoveAll(filepath.Join(s.dir, "checkpoints", keyHash(key)))
}

// CheckpointDir stores stage payloads for one job key. Saves are
// atomic and best-effort: a failed save costs re-computation after a
// restart, never correctness, so it does not fail the run.
type CheckpointDir struct {
	dir string
}

// stageFile maps a stage name (which may contain '/') to a flat,
// reversible file name.
func stageFile(stage string) string { return url.PathEscape(stage) }

// Save persists one completed stage's payload.
func (c *CheckpointDir) Save(stage string, data []byte) {
	writeAtomic(filepath.Join(c.dir, stageFile(stage)), data)
}

// Load returns a previously saved stage payload.
func (c *CheckpointDir) Load(stage string) ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(c.dir, stageFile(stage)))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Stages lists the saved stage names, sorted.
func (c *CheckpointDir) Stages() []string {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name, err := url.PathUnescape(e.Name())
		if err != nil {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
