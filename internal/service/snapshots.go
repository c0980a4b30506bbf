package service

import (
	"os"
	"path/filepath"
	"strings"
)

// snapshotStore persists warmed checkpoints (harness.SnapshotStore)
// as content-addressed files in the service cache directory, alongside
// the result envelopes. Filenames are "snap-<hex64>.bin", so the
// result cache — which only reads "<hex64>.json" envelopes — never
// confuses the two populations, and a snapshot written by one daemon
// run seeds every later one's warm-ups.
//
// Both methods are best-effort by contract: a miss or failed write
// just means the suite re-runs the warm-up, so I/O errors are
// swallowed rather than failing simulations.
type snapshotStore struct {
	dir string
}

// validKey reports whether key is a 64-char lowercase hex digest, the
// form of every result and snapshot key — defense against a key ever
// reaching the filesystem as a path.
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

func (s snapshotStore) path(key string) string {
	return filepath.Join(s.dir, "snap-"+key+".bin")
}

func (s snapshotStore) LoadSnapshot(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// SaveSnapshot writes atomically (writeFileAtomic), matching the
// result cache's crash discipline: a torn write leaves the old entry
// or none, and core.Restore rejects anything truncated regardless.
func (s snapshotStore) SaveSnapshot(key string, data []byte) {
	if validKey(key) {
		_ = writeFileAtomic(s.path(key), data)
	}
}

// Snapshots returns the number of persisted warm-up checkpoints in the
// store directory (for /healthz).
func (s snapshotStore) Snapshots() int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, de := range entries {
		name := de.Name()
		if !de.IsDir() && strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".bin") {
			n++
		}
	}
	return n
}
