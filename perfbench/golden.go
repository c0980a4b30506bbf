package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"clustersmt/internal/config"
	"clustersmt/internal/core"
)

// goldenSet holds the golden digests: a SHA-256 of each canonical
// Result (see digest) for every cell of the figures and alloc
// workloads, kept in testdata/golden.json. A change that only speeds
// the simulator up must leave every digest unchanged; regenerate with
// -update-golden only when results are meant to change.
type goldenSet struct {
	path   string
	update bool // record digests instead of checking them

	mu   sync.Mutex
	want map[string]string // cell key -> hex digest
	got  map[string]string // recorded under update
}

func loadGolden(dir string, update bool) (*goldenSet, error) {
	g := &goldenSet{path: filepath.Join(dir, "testdata", "golden.json"), update: update,
		want: map[string]string{}, got: map[string]string{}}
	b, err := os.ReadFile(g.path)
	if err != nil {
		if update && os.IsNotExist(err) {
			return g, nil
		}
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	if err := json.Unmarshal(b, &g.want); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// digest is the canonical content hash of a result: the machine's
// name-free canonical encoding (FA8 and SMT8 runs share one cached
// result, labelled by whichever ran first) followed by the JSON of the
// rest of the result.
func digest(r *core.Result) (string, error) {
	var b strings.Builder
	r.Machine.AppendCanonical(&b)
	rest := *r
	rest.Machine = config.Machine{}
	j, err := json.Marshal(&rest)
	if err != nil {
		return "", err
	}
	b.Write(j)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

// check compares a cell's result with its golden digest (or records it
// under update). It returns a non-nil error when the result differs.
func (g *goldenSet) check(key string, r *core.Result) error {
	d, err := digest(r)
	if err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.update {
		g.got[key] = d
		return nil
	}
	want, ok := g.want[key]
	if !ok {
		return fmt.Errorf("%s: no golden digest", key)
	}
	if want != d {
		return fmt.Errorf("%s: result digest %s, golden %s", key, d[:12], want[:12])
	}
	return nil
}

// save merges the digests recorded under update into the golden file,
// so workloads can be updated one at a time.
func (g *goldenSet) save() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for k, v := range g.got {
		g.want[k] = v
	}
	b, err := json.MarshalIndent(g.want, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, append(b, '\n'), 0o644)
}
