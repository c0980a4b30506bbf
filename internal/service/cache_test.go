package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
	"clustersmt/internal/workloads"
)

// TestCacheRestartServesEnvelopes is the crash-recovery contract for
// the disk tier: a restarted cache reads the per-entry envelopes
// directly, with no shutdown step to depend on. An entry written
// before the restart is a disk hit (then promoted to memory); one
// removed out-of-band, a torn write, a corrupt file and an envelope
// without a result are plain misses; stray temp files are ignored.
func TestCacheRestartServesEnvelopes(t *testing.T) {
	dir := t.TempDir()
	res := func(cycles int64) *core.Result {
		return &core.Result{ProgramName: "swim", Machine: config.LowEnd(config.SMT2), Cycles: cycles}
	}
	k1, k2, k3 := [32]byte{1}, [32]byte{2}, [32]byte{3}
	envPath := func(k [32]byte) string { return filepath.Join(dir, fmt.Sprintf("%x.json", k)) }

	// Cache A persists three entries and then "crashes" (there is no
	// Close to skip): k2's envelope vanishes out-of-band, k3's is torn
	// mid-file, and foreign files appear next to them.
	a, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range [][32]byte{k1, k2, k3} {
		if err := a.Put(k, JobSpec{App: "swim"}, res(int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(envPath(k2)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(envPath(k3))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envPath(k3), raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "put-123.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt, empty := [32]byte{4}, [32]byte{5}
	if err := os.WriteFile(envPath(corrupt), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(envPath(empty), []byte(`{"hash":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart: the survivor is served from disk, then from memory.
	c, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, tier, ok := c.Get(k1); !ok || tier != TierDisk || r.Cycles != 100 {
		t.Fatalf("surviving entry not served from disk: ok=%v tier=%q", ok, tier)
	}
	if _, tier, ok := c.Get(k1); !ok || tier != TierMemory {
		t.Fatalf("disk hit not promoted to memory: ok=%v tier=%q", ok, tier)
	}
	for name, k := range map[string][32]byte{"removed": k2, "torn": k3, "corrupt": corrupt, "result-less": empty} {
		if _, _, ok := c.Get(k); ok {
			t.Fatalf("%s envelope served a result", name)
		}
	}
	if st := c.Stats(); st.DiskHits != 1 || st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("restart stats %+v, want 1 disk hit, 1 memory hit, 4 misses", st)
	}

	// A fresh Put over the torn entry rewrites it whole.
	if err := c.Put(k3, JobSpec{App: "swim"}, res(300)); err != nil {
		t.Fatal(err)
	}
	d, err := NewCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	if r, tier, ok := d.Get(k3); !ok || tier != TierDisk || r.Cycles != 300 {
		t.Fatalf("rewritten entry not served from disk: ok=%v tier=%q", ok, tier)
	}
}

// TestServiceDiskCacheRecoversFromCrash is the server-level restart
// test: server A completes a job and dies without the graceful Close,
// leaving a half-written temp file behind, and server B on the same
// directory must serve the same spec instantly from the disk tier with
// identical bytes.
func TestServiceDiskCacheRecoversFromCrash(t *testing.T) {
	dir := t.TempDir()
	spec := JobSpec{App: "tomcatv", Arch: "FA4"}

	srvA, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	status, j, _ := submit(t, tsA, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submission on A: status %d", status)
	}
	first := waitJob(t, tsA, j.ID)
	if first.Status != StateDone {
		t.Fatalf("job on A failed: %+v", first)
	}
	tsA.Close()
	// Crash: no srvA.Close(ctx), and a write that never reached its
	// rename is left in the directory.
	if err := os.WriteFile(filepath.Join(dir, "put-456.tmp"), []byte(`{"hash":"feed`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Silence the leaked pool on test exit.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srvA.Close(ctx)
	})

	srvB, err := New(Options{DefaultSize: workloads.SizeTest, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer srvB.Close(context.Background())

	status, second, _ := submit(t, tsB, spec)
	if status != http.StatusOK {
		t.Fatalf("resubmission on B: status %d, want 200 (instant)", status)
	}
	if !second.CacheHit || second.CacheTier != TierDisk || second.Hash != first.Hash {
		t.Fatalf("resubmission on B not a disk hit: %+v", second)
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatal("crash-recovered result differs from the original JSON")
	}
}
