// Package batch applies semantic patches across many source files with a
// worker pool, the way spatch is used over a whole codebase. The unit of
// work is a Campaign: an ordered list of patches, each compiled once
// (core.Compile) with the read-only artifacts shared by per-worker engine
// instances. A single patch is a campaign of one. Per-file results stream to
// the caller in input order with bounded memory, so a run over a
// million-file corpus holds only a small window of results at any moment.
// Before parsing a file, workers consult each patch's required-atom
// prefilter (internal/index): a file that provably cannot be fired on by any
// rule is reported as skipped without ever being lexed or parsed, which is
// where most of the time goes on a mostly-non-matching corpus.
//
// Semantics are per-file: each file is patched independently, exactly as if
// it were the only file handed to a fresh core.Engine per patch. Metavariable
// environments do not flow between files, and fresh-identifier counters
// reset per file, so the output for a file never depends on which worker
// processed it, how many workers ran, or in what order files completed.
package batch

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/verify"
)

// Options configures a batch run.
type Options struct {
	// Engine is the per-file engine configuration (dialect, CTL, limits).
	Engine core.Options
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0). At most
	// twice that many files are in flight (dispatched but not yet
	// delivered in order), which bounds the buffered results.
	Workers int
	// NoPrefilter disables the required-atom prefilter, forcing every file
	// through the full parse-and-match pipeline. The filter only skips
	// files no rule could possibly fire on, so outputs are identical either
	// way; disabling it restores per-file parse-error reporting for files
	// the patch provably cannot touch.
	NoPrefilter bool
	// CacheDir, when non-empty, enables the persistent corpus index
	// (internal/cache) rooted at that directory: file scans and per-file
	// results are cached by content hash, so re-running over an unchanged
	// corpus skips scanning, parsing, and matching. Outputs are identical
	// with the cache cold, warm, or disabled; invalidation is automatic
	// (editing a file, the patch, or result-affecting options changes the
	// key). An unusable directory is reported once per run, like any other
	// configuration error.
	CacheDir string
	// Store, when non-nil, is the cache the run reads and writes through —
	// typically a cache.Memory layered over a disk cache, owned by a
	// resident server (internal/serve). It takes precedence over CacheDir.
	// The Cache() status surface only covers caches opened from CacheDir; a
	// caller supplying its own Store reports its own status.
	Store cache.Store
	// NoFuncCache disables function-granular processing (per-function
	// result caching, prefiltering, and intra-file parallel matching) for
	// patches that qualify (core.FunctionLocal). Outputs are identical
	// either way; the knob exists for debugging and differential testing,
	// so it is excluded from the result-cache fingerprint.
	NoFuncCache bool
	// Verify runs the post-transform safety checker (internal/verify) on
	// every file a patch changed: capture-avoidance and def-use checks for
	// rewritten identifiers, pragma round-trip checks for directive
	// translations, and an output re-parse. An unsafe finding demotes the
	// edit — the file's output reverts to its input and the findings ride
	// the result as structured warnings. Verify mode (and the checker
	// version) keys the result cache, so verified and unverified runs never
	// share cached outcomes.
	Verify bool
	// Tracer, when non-nil, receives pipeline spans: each worker records its
	// read/hash/prefilter/parse/segment/cfg/match/verify/render and cache
	// traffic on its own track. Tracing never changes outputs, so it is
	// excluded from the result-cache fingerprint; with a nil Tracer every
	// instrumentation site costs a single pointer check.
	Tracer *obs.Tracer
}

// srcExts are the C/C++/CUDA source suffixes.
var srcExts = map[string]bool{
	".c": true, ".h": true,
	".cc": true, ".cpp": true, ".cxx": true,
	".hh": true, ".hpp": true, ".hxx": true,
	".cu": true, ".cuh": true,
}

// IsSource reports whether path has a C/C++/CUDA source suffix: the files
// `gocci -r` collects and a serve session sweeps.
func IsSource(path string) bool { return srcExts[filepath.Ext(path)] }

// fingerprint canonicalizes every result-affecting engine option into the
// result-cache key, so a cached outcome is only ever replayed under the
// exact configuration that produced it. Workers and NoPrefilter are
// excluded: they cannot change outputs.
func fingerprint(o core.Options) string {
	maxEnvs := o.MaxEnvs
	if maxEnvs == 0 {
		maxEnvs = 4096 // the engine's default; 0 and 4096 are the same run
	}
	defines := append([]string(nil), o.Defines...)
	sort.Strings(defines)
	return fmt.Sprintf("cpp=%v,std=%d,cuda=%v,maxenvs=%d,maxmatch=%d,D=%s",
		o.CPlusPlus, o.Std, o.CUDA, maxEnvs, o.MaxMatchesPerRule,
		strings.Join(defines, ";"))
}

// keyFingerprint extends the engine fingerprint with every result-affecting
// input that lives outside the patch text: the engine's output version (so
// a change to what the engine prints invalidates every cached outcome,
// file- and function-granular alike, since both key under this patch key),
// verify mode (with the checker's version, so changing the checks
// invalidates cached verify decisions), the finding-emission version for
// patches that carry check rules (so changing how findings are derived
// invalidates cached findings), and the declared versions of native Go
// script handlers (so a re-versioned handler invalidates every outcome it
// helped produce).
func keyFingerprint(o core.Options, verifyOn, hasChecks bool, scriptVers map[string]string) string {
	fp := fingerprint(o) + ",out=" + core.OutputVersion
	if verifyOn {
		fp += ",verify=" + verify.Version
	}
	if hasChecks {
		fp += ",check=" + analysis.Version
	}
	if len(scriptVers) > 0 {
		rules := make([]string, 0, len(scriptVers))
		for rule := range scriptVers {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		var sb strings.Builder
		for i, rule := range rules {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(rule)
			sb.WriteByte(':')
			sb.WriteString(scriptVers[rule])
		}
		fp += ",scripts=" + sb.String()
	}
	return fp
}

// verifyOptions maps the engine dialect onto the checker's.
func verifyOptions(o core.Options) verify.Options {
	return verify.Options{CPlusPlus: o.CPlusPlus, Std: o.Std, CUDA: o.CUDA}
}

// storeWarnings converts checker findings to their cache form.
func storeWarnings(warns []verify.Warning) []cache.Warning {
	out := make([]cache.Warning, len(warns))
	for i, w := range warns {
		out[i] = cache.Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}
	}
	return out
}

// loadWarnings converts cached findings back to checker form.
func loadWarnings(ws []cache.Warning) []verify.Warning {
	if len(ws) == 0 {
		return nil
	}
	out := make([]verify.Warning, len(ws))
	for i, w := range ws {
		out[i] = verify.Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}
	}
	return out
}

// storeFindings converts check-rule findings to their file-level cache form.
func storeFindings(fs []analysis.Finding) []cache.Finding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]cache.Finding, len(fs))
	for i, f := range fs {
		out[i] = cache.Finding{
			Check: f.Check, Severity: f.Severity, File: f.File, Line: f.Line,
			Col: f.Col, Func: f.Func, Message: f.Message, Rule: f.Rule,
			Bindings: f.Bindings, FuncHash: f.FuncHash, TokOff: f.TokOff,
		}
	}
	return out
}

// loadFindings converts cached file-level findings back to analysis form.
func loadFindings(fs []cache.Finding) []analysis.Finding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]analysis.Finding, len(fs))
	for i, f := range fs {
		out[i] = analysis.Finding{
			Check: f.Check, Severity: f.Severity, File: f.File, Line: f.Line,
			Col: f.Col, Func: f.Func, Message: f.Message, Rule: f.Rule,
			Bindings: f.Bindings, FuncHash: f.FuncHash, TokOff: f.TokOff,
		}
	}
	return out
}
