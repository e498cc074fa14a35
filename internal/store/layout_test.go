package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestLayoutVersionWrittenOnCreate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "layout-version"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != LayoutVersion+"\n" {
		t.Fatalf("layout-version = %q, want %q", data, LayoutVersion+"\n")
	}
	// Reopening the same directory accepts its own marker.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
}

func TestLayoutVersionMismatchRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "layout-version"), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, 0)
	if err == nil {
		t.Fatal("Open accepted a future layout version")
	}
	if !strings.Contains(err.Error(), "layout version") || !strings.Contains(err.Error(), "refusing to open") {
		t.Fatalf("mismatch error is not loud enough: %v", err)
	}
}

// A v1 directory (created before the marker existed: subdirectories
// but no layout-version file) upgrades in place — the v2 additions
// are purely additive — and keeps its artifacts readable.
func TestLayoutV1DirUpgradesInPlace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutResult("old-key", []byte("v1 era blob\n")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Strip the marker to simulate a pre-versioning directory.
	if err := os.Remove(filepath.Join(dir, "layout-version")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatalf("v1 directory refused: %v", err)
	}
	defer s2.Close()
	if got, err := s2.GetResult("old-key"); err != nil || string(got) != "v1 era blob\n" {
		t.Fatalf("v1 artifact unreadable after upgrade: %q err %v", got, err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, "layout-version")); err != nil || string(data) != LayoutVersion+"\n" {
		t.Fatalf("upgrade did not stamp the marker: %q err %v", data, err)
	}
}

func TestControllerBlobRoundTripAndStats(t *testing.T) {
	s := openTemp(t, 0)
	if _, ok := s.GetController("ctl|missing"); ok {
		t.Fatal("miss reported as hit")
	}
	blob := []byte(`{"wires":["a_r"],"result":{},"netlist":{}}`)
	s.PutController("ctl|k1", blob)
	got, ok := s.GetController("ctl|k1")
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("round trip: %q/%v", got, ok)
	}
	// Controller refs share the artifact blob pool with job results:
	// an identical payload dedupes to one artifact.
	if _, err := s.PutResult("job-key", blob); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Artifacts != 1 || st.Refs != 1 || st.ControllerRefs != 1 {
		t.Fatalf("stats = %+v, want 1 artifact, 1 ref, 1 controller ref", st)
	}
}

// Controller refs heal like result refs: a tampered blob reads as a
// miss (not an error), and a re-put restores service.
func TestControllerCorruptionHealsToMiss(t *testing.T) {
	s := openTemp(t, 0)
	blob := []byte("controller payload\n")
	s.PutController("ctl|k", blob)
	if err := os.WriteFile(s.blobPath(contentHash(blob)), []byte("tampered!!!!!!!!!!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.GetController("ctl|k"); ok {
		t.Fatal("tampered controller blob served as a hit")
	}
	s.PutController("ctl|k", blob)
	if got, ok := s.GetController("ctl|k"); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("after re-put: %q/%v", got, ok)
	}
}

// Concurrent puts of byte-different blobs under one controller key —
// two jobs that missed the same shape, seeded by differently named
// wires — leave exactly one artifact: the first writer wins and no
// blob is orphaned. A ref whose blob is gone is still overwritten.
func TestPutControllerFirstWriterWins(t *testing.T) {
	s := openTemp(t, 0)
	const writers = 8
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.PutController("ctl|shared", []byte(fmt.Sprintf("seeded by writer %d\n", i)))
		}(i)
	}
	wg.Wait()
	first, ok := s.GetController("ctl|shared")
	if !ok {
		t.Fatal("no blob under the shared key")
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Artifacts != 1 || st.ControllerRefs != 1 {
		t.Fatalf("stats = %+v, want 1 artifact / 1 controller ref (no orphaned blobs)", st)
	}
	s.PutController("ctl|shared", []byte("late writer\n"))
	if got, _ := s.GetController("ctl|shared"); !bytes.Equal(got, first) {
		t.Fatalf("late put replaced the first blob: %q", got)
	}

	// Dangling ref: its blob vanished without a GC pass.
	if err := os.Remove(s.blobPath(contentHash(first))); err != nil {
		t.Fatal(err)
	}
	repl := []byte("replacement\n")
	s.PutController("ctl|shared", repl)
	if got, ok := s.GetController("ctl|shared"); !ok || !bytes.Equal(got, repl) {
		t.Fatalf("dangling ref not overwritten: %q/%v", got, ok)
	}
}

// GC sweeps dangling controller refs alongside result refs when their
// shared blob is evicted.
func TestGCSweepsDanglingControllerRefs(t *testing.T) {
	s := openTemp(t, 0)
	blob := []byte("shared payload between namespaces\n")
	if _, err := s.PutResult("job", blob); err != nil {
		t.Fatal(err)
	}
	s.PutController("ctl", blob)
	s.maxBytes = 1 // evict everything
	res, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 1 {
		t.Fatalf("evicted %d blobs, want 1", res.Evicted)
	}
	if res.DanglingRefs != 2 {
		t.Fatalf("swept %d dangling refs, want 2 (refs + ctlrefs)", res.DanglingRefs)
	}
	if _, ok := s.GetController("ctl"); ok {
		t.Fatal("evicted controller key still hits")
	}
	st, _ := s.Stats()
	if st.ControllerRefs != 0 {
		t.Fatalf("controller refs = %d after GC, want 0", st.ControllerRefs)
	}
}
