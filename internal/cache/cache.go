// Package cache implements gocci's persistent corpus index: an on-disk
// store, keyed by content hashes, that lets repeated semantic-patch runs
// over a slowly-changing source tree skip work they have already done. It
// holds these layers:
//
//   - a *scan cache* mapping a file's content hash to the set of
//     identifier-like words in its bytes, so the required-atom prefilter
//     (internal/index) can be answered for any patch without rescanning the
//     file's text;
//   - a *result cache* mapping (patch hash, effective options, file hash)
//     to the outcome of applying that patch to that file — match counts,
//     whether it changed, and the transformed text when it did — so a warm
//     re-run over an unchanged corpus skips scanning, parsing, matching,
//     and transforming entirely;
//   - a *campaign record* per file that several members of one campaign
//     change, a Record stored in the result layer under the whole
//     campaign's key (CampaignKey, over the ordered member keys): it
//     carries only the composed diff hunks from the input to the final
//     text, so a warm replay prints that file's diff without reading or
//     diffing it;
//   - a *function-granular result cache* mapping (patch hash, effective
//     options, function hash) to the outcome of matching one function
//     segment (or a file's inter-function residue), so editing one function
//     of a file re-matches only that function — the file-level answer is
//     spliced from the cached segments (internal/batch).
//
// Invalidation is purely by content hash: editing a file changes its hash,
// so stale entries are never consulted — they simply become garbage that a
// later cleanup (or deleting the directory) reclaims. Editing the patch or
// changing result-affecting options likewise changes the result key.
//
// Corruption is never silently trusted: every entry is validated on read
// (JSON structure plus an output checksum), a bad entry is deleted and
// counted — the caller re-derives it and the cache heals itself — and a
// cache directory whose version marker is missing while other content is
// present is refused outright rather than wiped, in case the caller pointed
// --cache-dir at a directory that is not a cache.
//
// All operations are safe for concurrent use by any number of workers and
// processes: entries are immutable once written, and writes go through a
// temp file and an atomic rename.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
)

// version is written to the VERSION marker file; bumping it (for a format
// change) makes Open wipe and rebuild old caches instead of misreading them.
const version = "gocci-cache-v2"

// Cache is an open cache directory. The zero value is not usable; call Open.
type Cache struct {
	dir     string
	rebuilt string // non-empty when Open wiped an incompatible cache
	corrupt atomic.Int64
}

// Open prepares dir as a cache directory, creating it if needed. An existing
// directory from an older (or corrupt) cache format is wiped and rebuilt,
// reported through Rebuilt. A non-empty directory that carries no cache
// version marker is refused — it is presumably not a cache, and wiping it
// would destroy user data.
func Open(dir string) (*Cache, error) {
	if info, err := os.Stat(dir); err == nil && !info.IsDir() {
		return nil, fmt.Errorf("cache: %s exists and is not a directory; delete it or choose another --cache-dir", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir}
	marker := filepath.Join(dir, "VERSION")
	b, err := os.ReadFile(marker)
	switch {
	case err == nil && strings.TrimSpace(string(b)) == version:
		return c, nil // compatible cache, use as is
	case err == nil:
		// A cache, but a different or corrupt format: drop and rebuild.
		c.rebuilt = fmt.Sprintf("version %q does not match %q", strings.TrimSpace(string(b)), version)
	case os.IsNotExist(err):
		entries, derr := os.ReadDir(dir)
		if derr != nil {
			return nil, fmt.Errorf("cache: %w", derr)
		}
		if len(entries) > 0 {
			return nil, fmt.Errorf("cache: %s is not empty and has no cache VERSION marker — it does not look like a gocci cache; use an empty or new directory, or delete its contents", dir)
		}
	default:
		return nil, fmt.Errorf("cache: %w", err)
	}
	// (Re)initialize: clear the entry trees and write the marker.
	for _, sub := range []string{"scan", "res", "fn"} {
		if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	if err := writeAtomic(marker, []byte(version+"\n")); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	return c, nil
}

// Dir returns the cache directory path.
func (c *Cache) Dir() string { return c.dir }

// Rebuilt reports why Open wiped and rebuilt an existing cache ("" when it
// did not) — callers surface this so a rebuild is never silent.
func (c *Cache) Rebuilt() string { return c.rebuilt }

// CorruptEntries counts entries that failed validation on read and were
// deleted. The entries are re-derived and rewritten, so the cache heals; a
// nonzero count means the directory saw outside interference (truncation,
// bit rot, concurrent tampering) and is worth reporting to the user.
func (c *Cache) CorruptEntries() int64 { return c.corrupt.Load() }

// HashString returns the content hash used for every cache key.
func HashString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// ResultKey derives the result-cache key prefix for one (patch, options)
// pair: patchSrc is the raw .cocci text and fingerprint a canonical
// rendering of every result-affecting option (dialect, limits, defines).
func ResultKey(patchSrc, fingerprint string) string {
	return HashString(patchSrc + "\x00" + fingerprint)
}

// CampaignKey derives the result-cache key of a whole campaign from its
// members' ResultKeys, in campaign order, so reordering the members changes
// it. It never equals a member key: "campaign" is no options fingerprint.
func CampaignKey(memberKeys []string) string {
	return ResultKey(strings.Join(memberKeys, "\n"), "campaign")
}

// scanPath shards scan entries by the first hash byte to keep directories
// small on big corpora.
func (c *Cache) scanPath(fileHash string) string {
	return filepath.Join(c.dir, "scan", fileHash[:2], fileHash+".json")
}

// resPath groups result entries per (patch, options) key — one directory
// per patch, sharded by file hash inside it.
func (c *Cache) resPath(key, fileHash string) string {
	return filepath.Join(c.dir, "res", key, fileHash[:2], fileHash+".json")
}

// fnPath groups function-granular result entries per (patch, options) key,
// sharded by function hash — a tree parallel to res/ so file manifests and
// function segments can never collide or overwrite each other.
func (c *Cache) fnPath(key, fnHash string) string {
	return filepath.Join(c.dir, "fn", key, fnHash[:2], fnHash+".json")
}

// scanEntry is the on-disk form of one scan-cache entry.
type scanEntry struct {
	Words []string `json:"words"`
}

// Words returns the cached identifier-word set for a file hash.
func (c *Cache) Words(fileHash string) (map[string]bool, bool) {
	var e scanEntry
	if !c.load(c.scanPath(fileHash), &e) {
		return nil, false
	}
	set := make(map[string]bool, len(e.Words))
	for _, w := range e.Words {
		set[w] = true
	}
	return set, true
}

// PutWords stores a file's identifier-word set. Write failures are returned
// but are safe to ignore: the cache is an accelerator, never authoritative.
func (c *Cache) PutWords(fileHash string, words map[string]bool) error {
	list := make([]string, 0, len(words))
	for w := range words {
		list = append(list, w)
	}
	sort.Strings(list)
	return c.store(c.scanPath(fileHash), &scanEntry{Words: list})
}

// Record is one cached per-file patch outcome. It stores exactly what is
// needed to synthesize the per-patch outcome a full run would produce: the
// transformed text when the file changed, optionally the diff hunks that
// lead to it, match counts, and the truncation/skip flags.
type Record struct {
	// MatchCount counts matches per rule.
	MatchCount map[string]int `json:"match_count,omitempty"`
	// Changed reports that the output differs from the input; Output then
	// holds the transformed text and Sum the content hash of Output and
	// Diff together. A campaign record (CampaignKey) is Changed with an
	// empty Output: the members' records hold the texts, and its Diff,
	// the composed hunks, is "" when the members' changes cancel out.
	Changed bool   `json:"changed,omitempty"`
	Output  string `json:"output,omitempty"`
	// Diff, when set, holds the label-free unified diff hunks
	// (diff.Hunks) from the record's input text to Output, so a replay can
	// print the file's diff without reading or diffing the input. It
	// carries no file names: a record is keyed by content, so files with
	// identical text under different names share it.
	Diff string `json:"diff,omitempty"`
	Sum  string `json:"sum,omitempty"`
	// Skipped records that the prefilter rejected the file without parsing.
	Skipped bool `json:"skipped,omitempty"`
	// EnvsTruncated records that the run hit the MaxEnvs cap.
	EnvsTruncated bool `json:"envs_truncated,omitempty"`
	// Warnings and Demoted record a verify-mode outcome: the checker's
	// findings and whether an unsafe finding reverted the edit. Only ever
	// set under verify-keyed result keys, so non-verify runs never replay
	// them.
	Warnings []Warning `json:"warnings,omitempty"`
	Demoted  bool      `json:"demoted,omitempty"`
	// Findings are the check-rule reports the run emitted for this file.
	// Positions are absolute: a file-level record only ever replays against
	// byte-identical text, so they cannot go stale.
	Findings []Finding `json:"findings,omitempty"`
}

// Warning is the stored form of one post-transform verifier finding (the
// wire mirror of verify.Warning, kept here so the cache stays free of the
// checker's dependencies).
type Warning struct {
	Code    string `json:"code"`
	Func    string `json:"func,omitempty"`
	Message string `json:"message"`
	Unsafe  bool   `json:"unsafe,omitempty"`
}

// Finding is the stored form of one check-rule report (the wire mirror of
// analysis.Finding, kept here like Warning so the cache stays free of the
// analysis layer's dependencies).
type Finding struct {
	Check    string            `json:"check"`
	Severity string            `json:"severity"`
	File     string            `json:"file"`
	Line     int               `json:"line"`
	Col      int               `json:"col"`
	Func     string            `json:"func,omitempty"`
	Message  string            `json:"message"`
	Rule     string            `json:"rule,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
	FuncHash string            `json:"func_hash,omitempty"`
	TokOff   int               `json:"tok_off"`
}

// FnFinding is the position-independent stored form of one check-rule report
// inside a function-granular record: only what cannot be re-derived from the
// live parse survives. File, Line, Col, Func, and FuncHash are reconstructed
// at replay from the current segmentation and the anchor's segment-relative
// token offset, so the record — like the rest of FuncRecord — stays valid
// when the segment moves inside its file.
type FnFinding struct {
	Check    string            `json:"check"`
	Severity string            `json:"severity"`
	Message  string            `json:"message"`
	Rule     string            `json:"rule,omitempty"`
	Bindings map[string]string `json:"bindings,omitempty"`
	TokOff   int               `json:"tok_off"`
}

// Result returns the cached outcome of applying (key) to a file.
func (c *Cache) Result(key, fileHash string) (*Record, bool) {
	path := c.resPath(key, fileHash)
	var r Record
	if !c.load(path, &r) {
		return nil, false
	}
	// Never trust a transformed output or diff whose checksum does not
	// match: a bit-flipped entry must be rebuilt, not written into user
	// files or printed.
	if r.Changed && r.sum() != r.Sum {
		c.drop(path)
		return nil, false
	}
	return &r, true
}

// PutResult stores one per-file outcome.
func (c *Cache) PutResult(key, fileHash string, r *Record) error {
	if r.Changed {
		r.Sum = r.sum()
	}
	return c.store(c.resPath(key, fileHash), r)
}

// sum is the checksum of a changed record's payload.
func (r *Record) sum() string {
	return HashString(r.Output + "\x00" + r.Diff)
}

// FuncRecord is one cached per-segment outcome: the result of matching one
// function (or one file's inter-function residue) under a (patch, options)
// key. It is position-independent — nothing in it depends on where the
// segment sits in its file or on any other segment's content — which is
// what lets a record survive reordering functions or editing a sibling.
type FuncRecord struct {
	// Matches counts applied matches inside the segment.
	Matches int `json:"matches,omitempty"`
	// Changed reports the segment's rendered text differs from its source;
	// the caller reconstructs unchanged segments from the current parse, so
	// Output/Gaps are stored only when Changed.
	Changed bool `json:"changed,omitempty"`
	// Output is the transformed segment text (function entries).
	Output string `json:"output,omitempty"`
	// Gaps are the transformed gap texts (residue entries).
	Gaps []string `json:"gaps,omitempty"`
	// Sum is the content hash of Output (or of the joined Gaps).
	Sum string `json:"sum,omitempty"`
	// Findings are the check-rule reports anchored inside the segment, in
	// position-independent form (see FnFinding).
	Findings []FnFinding `json:"findings,omitempty"`
}

// payload is the checksummed content of a changed record.
func (r *FuncRecord) payload() string {
	if r.Gaps != nil {
		return strings.Join(r.Gaps, "\x00")
	}
	return r.Output
}

// FuncResult returns the cached outcome of matching (key) against one
// function segment (or residue) by its content hash.
func (c *Cache) FuncResult(key, fnHash string) (*FuncRecord, bool) {
	path := c.fnPath(key, fnHash)
	var r FuncRecord
	if !c.load(path, &r) {
		return nil, false
	}
	if r.Changed && HashString(r.payload()) != r.Sum {
		c.drop(path)
		return nil, false
	}
	return &r, true
}

// PutFuncResult stores one per-segment outcome.
func (c *Cache) PutFuncResult(key, fnHash string, r *FuncRecord) error {
	if r.Changed {
		r.Sum = HashString(r.payload())
	}
	return c.store(c.fnPath(key, fnHash), r)
}

// load reads and decodes one entry, dropping it on any validation failure.
func (c *Cache) load(path string, v any) bool {
	b, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		c.drop(path)
		return false
	}
	return true
}

// drop deletes a corrupt entry and counts it.
func (c *Cache) drop(path string) {
	c.corrupt.Add(1)
	os.Remove(path)
}

// store encodes and atomically writes one entry.
func (c *Cache) store(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return writeAtomic(path, b)
}

// writeAtomic lands content in a same-directory temp file and renames it
// into place, so readers never observe a half-written entry and concurrent
// writers of the same (identical) entry race harmlessly.
func writeAtomic(path string, content []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(content); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
