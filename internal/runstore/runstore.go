// Package runstore archives run manifests under a content-addressed
// directory and diffs archived runs, so bench and accuracy regressions
// are diagnosable from artifacts instead of reruns.
//
// A run's identity is the SHA-256 of the model version and its
// canonicalized resolved config (JSON with sorted keys — the seed is part
// of the config, so the key is (model, config, seed) by construction),
// truncated to 12 hex digits. Archiving the same configuration twice
// replaces the entry: bit-identical configs name bit-identical runs.
// Entries are replaced atomically, so a reader sees either the old
// manifest or the new one, never a torn file.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fase/internal/obs"
)

// IDLen is the truncated hex length of a run id.
const IDLen = 12

// ModelVersion names the simulation model that produced a run, and is
// hashed into every run id ahead of the config. Bump it in any commit
// that changes a run's output for an unchanged config and seed: runs
// archived under the old model then no longer answer the new ids, so a
// store never serves a stale result as a cache hit.
const ModelVersion = 6

// Store is a directory of archived run manifests, one <id>.json each.
type Store struct{ Dir string }

// Open returns a store rooted at dir, creating the directory on first
// use.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: create %s: %w", dir, err)
	}
	return &Store{Dir: dir}, nil
}

// ConfigID computes the content address of a resolved config: the
// SHA-256 of the model version followed by the config's canonical JSON
// (marshal → unmarshal into interface{} → marshal again, so
// struct-produced and file-round-tripped configs — whose Go types differ
// — hash identically; encoding/json sorts map keys).
func ConfigID(config any) (string, error) {
	raw, err := json.Marshal(config)
	if err != nil {
		return "", fmt.Errorf("runstore: marshal config: %w", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return "", fmt.Errorf("runstore: canonicalize config: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: canonicalize config: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "fase-model/%d\n", ModelVersion)
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))[:IDLen], nil
}

// Entry is one archived run.
type Entry struct {
	ID          string
	Path        string
	CreatedUnix int64
}

// Add archives a manifest, returning its entry. Same config → same id →
// the entry is replaced. The manifest is written to a temporary file in
// the store directory, synced, and renamed over <id>.json, so a crash
// mid-write leaves the previous entry (or none) intact, and concurrent
// completions of one id each install a whole file — the last rename wins.
func (s *Store) Add(m *obs.Manifest) (Entry, error) {
	id, err := ConfigID(m.Config)
	if err != nil {
		return Entry{}, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Entry{}, fmt.Errorf("runstore: marshal manifest: %w", err)
	}
	path := filepath.Join(s.Dir, id+".json")
	if err := writeAtomic(path, append(data, '\n')); err != nil {
		return Entry{}, err
	}
	return Entry{ID: id, Path: path, CreatedUnix: m.CreatedUnix}, nil
}

// writeAtomic replaces path with data via a synced temporary file in the
// same directory and a rename. The temporary name does not end in .json,
// so List never sees a half-written entry.
func writeAtomic(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name()) // best effort: a leftover temp file is never listed
		return fmt.Errorf("runstore: write %s: %w", path, err)
	}
	return nil
}

// orphanAge is how old a temporary file must be before Recover treats it
// as orphaned. Add holds its temporary file only for one write, fsync,
// and rename, so a file this old was left by a writer that crashed, not
// by one still running.
const orphanAge = time.Hour

// Recover removes the temporary files that Adds interrupted by a crash
// left in the store (<id>.json.*.tmp, see writeAtomic), returning the
// paths it removed. Only files older than orphanAge go, so the in-flight
// file of a writer running concurrently survives. List never reads
// temporary files, so recovery reclaims disk space without changing what
// the store lists.
func (s *Store) Recover() ([]string, error) {
	glob, err := filepath.Glob(filepath.Join(s.Dir, "*.json.*.tmp"))
	if err != nil {
		return nil, err
	}
	cutoff := time.Now().Add(-orphanAge)
	var removed []string
	var errs []error
	for _, path := range glob {
		st, err := os.Lstat(path)
		if err != nil || !st.Mode().IsRegular() || st.ModTime().After(cutoff) {
			continue
		}
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			errs = append(errs, fmt.Errorf("runstore: %w", err))
			continue
		}
		removed = append(removed, path)
	}
	return removed, errors.Join(errs...)
}

// List returns the archived runs, most recently created first (ties
// break on id so the order is total), and the paths of entries it
// skipped because they could not be read or parsed — a torn file left by
// a crash, or one damaged by hand. One bad entry never hides the rest.
func (s *Store) List() (entries []Entry, skipped []string, err error) {
	glob, err := filepath.Glob(filepath.Join(s.Dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	for _, path := range glob {
		m, err := readManifestFile(path)
		if err != nil {
			skipped = append(skipped, path)
			continue
		}
		id := strings.TrimSuffix(filepath.Base(path), ".json")
		entries = append(entries, Entry{ID: id, Path: path, CreatedUnix: m.CreatedUnix})
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].CreatedUnix != entries[b].CreatedUnix {
			return entries[a].CreatedUnix > entries[b].CreatedUnix
		}
		return entries[a].ID < entries[b].ID
	})
	return entries, skipped, nil
}

// Lookup reads the entry archived under exactly id with a single file
// open — no listing, so its cost does not grow with the store. A missing
// entry returns an error wrapping fs.ErrNotExist; an unparsable one
// returns the parse error.
func (s *Store) Lookup(id string) (*obs.Manifest, error) {
	return readManifestFile(filepath.Join(s.Dir, id+".json"))
}

// Resolve turns a run reference into a manifest. Three forms are
// accepted: a file path to a manifest (used as-is), "@N" (the Nth most
// recent archived run — @0 is the newest), and an id or unique id
// prefix. A reference that names no run — including a path (anything
// with a directory separator or a .json suffix) to a file that does not
// exist, which is answered without listing the store — returns an error
// wrapping fs.ErrNotExist.
func (s *Store) Resolve(ref string) (*obs.Manifest, string, error) {
	if st, err := os.Stat(ref); err == nil && !st.IsDir() {
		m, err := readManifestFile(ref)
		return m, ref, err
	}
	if strings.ContainsRune(ref, filepath.Separator) || strings.HasSuffix(ref, ".json") {
		return nil, "", fmt.Errorf("runstore: no run manifest at %s: %w", ref, fs.ErrNotExist)
	}
	if n, ok := strings.CutPrefix(ref, "@"); ok {
		idx, err := strconv.Atoi(n)
		if err != nil || idx < 0 {
			return nil, "", fmt.Errorf("runstore: bad run reference %q (want @N, N ≥ 0)", ref)
		}
		entries, _, err := s.List()
		if err != nil {
			return nil, "", err
		}
		if idx >= len(entries) {
			return nil, "", fmt.Errorf("runstore: reference %s but the store holds only %d run(s)", ref, len(entries))
		}
		m, err := readManifestFile(entries[idx].Path)
		return m, entries[idx].ID, err
	}
	entries, _, err := s.List()
	if err != nil {
		return nil, "", err
	}
	var hits []Entry
	for _, e := range entries {
		if strings.HasPrefix(e.ID, ref) {
			hits = append(hits, e)
		}
	}
	switch len(hits) {
	case 0:
		return nil, "", fmt.Errorf("runstore: no archived run matches %q: %w", ref, fs.ErrNotExist)
	case 1:
		m, err := readManifestFile(hits[0].Path)
		return m, hits[0].ID, err
	default:
		ids := make([]string, len(hits))
		for i, e := range hits {
			ids[i] = e.ID
		}
		return nil, "", fmt.Errorf("runstore: reference %q is ambiguous: %s", ref, strings.Join(ids, ", "))
	}
}

func readManifestFile(path string) (*obs.Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ReadManifest(data)
}
