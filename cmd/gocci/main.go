// Command gocci applies semantic patches to C/C++ source files, printing a
// unified diff by default (like spatch) or rewriting files in place.
//
// Usage:
//
//	gocci --sp-file patch.cocci [-cxx STD] [--cuda] [--in-place] file.c [file2.c ...]
//	gocci -j 8 -r --stats [--cache-dir DIR] path/to/tree patch.cocci [more.cocci ...]
//
// With an explicit file list, one engine processes all files together and
// metavariable bindings flow across files between rules. In recursive mode
// (-r) the positional arguments are directories, scanned for C/C++/CUDA
// sources, and the patches are applied to each file independently with a
// -j worker pool; files are read lazily inside the pool, a required-atom
// prefilter skips files a patch provably cannot touch (disable with
// --no-prefilter), and diffs stream in deterministic path order. Patches
// are named with --sp-file and/or as positional .cocci arguments; giving
// several runs them as a campaign, each file seeing the patches in command
// order but parsed at most once. --cache-dir enables the persistent corpus
// index: re-runs over unchanged files replay cached results instead of
// re-scanning, re-parsing, and re-matching them. --trace FILE records the
// run as Chrome trace-event JSON (per-stage spans on one track per worker)
// and --profile prints the aggregate table; see docs/observability.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	sempatch "repro"
	"repro/internal/buildinfo"
	"repro/internal/cliutil"
	"repro/internal/hpc"
)

func main() {
	// Subcommand dispatch precedes flag parsing: `gocci vet patch.cocci`
	// lints semantic patches without touching any source tree.
	if len(os.Args) > 1 && os.Args[1] == "vet" {
		os.Exit(runVet(os.Args[2:]))
	}
	showVersion := buildinfo.Setup("gocci")
	spFile := flag.String("sp-file", "", "semantic patch file (.cocci); may also be given as a positional argument")
	cxx := flag.Int("cxx", 0, "enable C++ mode with the given standard (11, 17, 23); 0 = C")
	cuda := flag.Bool("cuda", false, "enable CUDA <<< >>> kernel launches")
	inPlace := flag.Bool("in-place", false, "rewrite files instead of printing diffs")
	quiet := flag.Bool("quiet", false, "suppress diffs; only report matched rules")
	recurse := flag.Bool("r", false, "treat arguments as directories; apply to all C/C++ sources below them")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker count for recursive batch application")
	stats := flag.Bool("stats", false, "print a files/matches/changes summary to stderr")
	noPrefilter := flag.Bool("no-prefilter", false, "parse every file in recursive mode, even those the patch provably cannot touch")
	cacheDir := flag.String("cache-dir", "", "persistent corpus-index directory for recursive mode; re-runs over unchanged files replay cached results")
	noFnCache := flag.Bool("no-fn-cache", false, "disable function-granular matching and caching; eligible patches match whole files instead of per-function segments")
	verify := flag.Bool("verify", false, "run the post-transform safety checker in recursive mode; unsafe edits are demoted to warnings")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON profile of the run to this file (load in Perfetto)")
	profile := flag.Bool("profile", false, "print an aggregate profile to stderr: self-time per stage, per-rule attribution, cache and prefilter effectiveness")
	listCampaigns := flag.Bool("list-campaigns", false, "list the shipped HPC campaigns and exit")
	campaignName := flag.String("campaign", "", "run a shipped HPC campaign by name (see --list-campaigns) in addition to any .cocci arguments")
	check := flag.Bool("check", false, "match-only static analysis: report check-rule findings instead of diffs; exit 1 when findings at or above --fail-on remain")
	format := flag.String("format", "text", "finding output format for --check: text, json (NDJSON, the gocci-serve stream shape), or sarif")
	baselinePath := flag.String("baseline", "", "baseline file for --check: suppress the findings it records (write it with --baseline-write)")
	baselineWrite := flag.Bool("baseline-write", false, "record the current --check findings to --baseline PATH instead of gating on them")
	failOn := flag.String("fail-on", "error", "minimum finding severity that fails a --check run: error, warning, or info")
	var defines defineList
	flag.Var(&defines, "D", "define a virtual dependency name (repeatable)")
	flag.Parse()
	buildinfo.HandleVersion("gocci", showVersion)

	if *listCampaigns {
		for _, c := range hpc.Campaigns() {
			fmt.Printf("%-16s v%-3s %s (%s)\n", c.Name, c.Version, c.Title,
				strings.Join(c.PatchNames(), ", "))
		}
		return
	}

	args := flag.Args()
	// Positional patches: every argument ending in .cocci, in command
	// order, so `gocci -j 8 -r dir a.cocci b.cocci` runs a campaign.
	var patchFiles []string
	if *spFile != "" {
		patchFiles = append(patchFiles, *spFile)
	}
	var rest []string
	for _, a := range args {
		if strings.HasSuffix(a, ".cocci") {
			patchFiles = append(patchFiles, a)
		} else {
			rest = append(rest, a)
		}
	}
	args = rest
	if (len(patchFiles) == 0 && *campaignName == "") || len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: gocci --sp-file patch.cocci [options] file.c ...")
		fmt.Fprintln(os.Stderr, "       gocci [-j N] -r [options] dir ... patch.cocci [more.cocci ...]")
		fmt.Fprintln(os.Stderr, "       gocci vet patch.cocci [more.cocci ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := checkConfig{enabled: *check, format: *format, baselinePath: *baselinePath,
		baselineWrite: *baselineWrite, failOn: *failOn}
	if err := cfg.validate(*inPlace); err != nil {
		fmt.Fprintln(os.Stderr, "gocci:", err)
		os.Exit(2)
	}

	var patches []*sempatch.Patch
	var patchNames []string
	var campaign *hpc.Campaign
	if *campaignName != "" {
		c, ok := hpc.ByName(*campaignName)
		if !ok {
			fmt.Fprintf(os.Stderr, "gocci: unknown campaign %q; see --list-campaigns\n", *campaignName)
			os.Exit(2)
		}
		campaign = c
		cp, err := c.Patches()
		if err != nil {
			fatal(err)
		}
		patches = append(patches, cp...)
		for _, n := range c.PatchNames() {
			patchNames = append(patchNames, c.Name+"/"+n)
		}
	}
	for _, pf := range patchFiles {
		p, err := sempatch.ParsePatchFile(pf)
		if err != nil {
			fatal(err)
		}
		patches = append(patches, p)
		patchNames = append(patchNames, pf)
	}
	if *cacheDir != "" && !*recurse {
		fmt.Fprintln(os.Stderr, "gocci: warning: --cache-dir only applies to recursive (-r) mode; ignored")
		*cacheDir = ""
	}
	if *verify && !*recurse {
		fmt.Fprintln(os.Stderr, "gocci: warning: --verify only applies to recursive (-r) mode; ignored")
		*verify = false
	}
	opts := sempatch.Options{
		CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda,
		Defines: defines, Workers: *workers, NoPrefilter: *noPrefilter,
		CacheDir: *cacheDir, NoFuncCache: *noFnCache, Verify: *verify,
	}
	if campaign != nil {
		// The campaign dictates its own dialect (C++ standard, CUDA) and
		// registers its script hooks; user dialect flags still apply to any
		// extra .cocci patches run alongside via the merged option set.
		opts = campaign.Options(opts)
	}
	if cfg.enabled {
		cfg.warnIfNoChecks(patches)
	}
	var tracer *sempatch.Tracer
	if *tracePath != "" || *profile {
		tracer = sempatch.NewTracer()
		opts.Tracer = tracer
	}

	g := &gocci{inPlace: *inPlace, quiet: *quiet, check: cfg.enabled,
		ruleMatches: make([]map[string]int, len(patches))}
	for i := range g.ruleMatches {
		g.ruleMatches[i] = map[string]int{}
	}
	start := time.Now()
	if *recurse {
		g.runRecursive(patches, opts, args)
	} else {
		g.runSingle(patches, opts, args)
	}
	elapsed := time.Since(start)

	if *quiet {
		// Counts are per patch: two patches may both name a rule `fix`,
		// and each line reports only its own patch's matches.
		for i, p := range patches {
			for _, r := range p.Rules() {
				if len(patches) > 1 {
					fmt.Printf("%s: rule %-20s matches=%d\n", patchNames[i], r, g.ruleMatches[i][r])
				} else {
					fmt.Printf("rule %-20s matches=%d\n", r, g.ruleMatches[i][r])
				}
			}
		}
	}
	if *stats {
		switch {
		case *recurse && len(patches) > 1:
			fmt.Fprintf(os.Stderr, "gocci: %d files scanned, %d changed, %d errors in %v\n",
				g.cst.Files, g.cst.Changed, g.cst.Errors, elapsed.Round(time.Millisecond))
			for _, ps := range g.cst.PerPatch {
				fmt.Fprintf(os.Stderr, "gocci:   patch %s: %d skipped by prefilter, %d cached, %d matched (%d matches), %d changed, %d functions matched, %d functions cached%s\n",
					ps.Patch, ps.Skipped, ps.Cached, ps.Matched, ps.Matches, ps.Changed, ps.FuncsMatched, ps.FuncsCached,
					verifySuffix(*verify, ps.Demoted, ps.Warnings))
			}
		case *recurse:
			ps := g.cst.PerPatch[0]
			fmt.Fprintf(os.Stderr, "gocci: %d files scanned, %d skipped by prefilter, %d cached, %d matched (%d matches), %d changed, %d errors, %d functions matched, %d functions cached%s in %v\n",
				g.cst.Files, ps.Skipped, ps.Cached, ps.Matched, ps.Matches, g.cst.Changed, g.cst.Errors, ps.FuncsMatched, ps.FuncsCached,
				verifySuffix(*verify, ps.Demoted, ps.Warnings), elapsed.Round(time.Millisecond))
		default:
			// One engine run over all files: matches are not attributed
			// per file, so no per-file "matched" count is reported.
			fmt.Fprintf(os.Stderr, "gocci: %d files scanned, %d matches, %d changed in %v\n",
				g.st.Files, g.st.Matches, g.st.Changed, elapsed.Round(time.Millisecond))
		}
	}
	if *stats {
		// Fireable rules with zero matches across the whole run are dead
		// weight in the patch set; surface them so campaigns can be pruned.
		// Match-only check rules are labelled as such: a silent check rule
		// means "nothing to report here", not a transformation that missed.
		for i, p := range patches {
			isCheck := map[string]bool{}
			for _, r := range p.CheckRules() {
				isCheck[r] = true
			}
			for _, r := range p.FireableRules() {
				if g.ruleMatches[i][r] != 0 {
					continue
				}
				kind := "rule"
				if isCheck[r] {
					kind = "check rule"
				}
				if len(patches) > 1 {
					fmt.Fprintf(os.Stderr, "gocci: %s %s (%s) never fired\n", kind, r, patchNames[i])
				} else {
					fmt.Fprintf(os.Stderr, "gocci: %s %s never fired\n", kind, r)
				}
			}
		}
	}
	if *profile {
		fmt.Fprint(os.Stderr, tracer.Profile().Format())
	}
	if *tracePath != "" {
		if err := cliutil.WriteTrace(*tracePath, tracer); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gocci: trace written to %s\n", *tracePath)
	}
	g.reportCache()
	if cfg.enabled {
		os.Exit(g.finishCheck(cfg))
	}
	changed := g.st.Changed + g.cst.Changed
	if changed == 0 {
		fmt.Fprintln(os.Stderr, "no changes")
	}
	if g.hadError {
		os.Exit(1)
	}
}

// gocci accumulates run state shared by all modes.
type gocci struct {
	inPlace     bool
	quiet       bool
	check       bool // --check: collect findings, suppress diffs and writes
	st          sempatch.BatchStats
	cst         sempatch.CampaignStats
	cacheStatus sempatch.CacheStatus
	ruleMatches []map[string]int // per patch: rule name -> match count
	findings    []sempatch.Finding
	hadError    bool
}

// reportCache surfaces persistent-cache trouble: a rebuilt incompatible
// cache and dropped corrupt entries are warnings (the results are exact
// either way — entries are re-derived, never trusted), each with the
// remediation of clearing the directory if the condition repeats.
func (g *gocci) reportCache() {
	cs := g.cacheStatus
	if !cs.Enabled {
		return
	}
	if cs.Rebuilt != "" {
		fmt.Fprintf(os.Stderr, "gocci: warning: cache at %s was incompatible (%s); it was dropped and rebuilt\n", cs.Dir, cs.Rebuilt)
	}
	if cs.CorruptEntries > 0 {
		fmt.Fprintf(os.Stderr, "gocci: warning: %d corrupt cache entries at %s were dropped and rebuilt, never trusted; if this repeats, delete the directory to reset the cache\n", cs.CorruptEntries, cs.Dir)
	}
}

// emit handles one per-file outcome: report errors and verifier findings,
// write or print changes.
func (g *gocci) emit(fr sempatch.FileResult) error {
	if fr.Err != nil {
		fmt.Fprintf(os.Stderr, "gocci: %v\n", fr.Err)
		g.hadError = true
		return nil
	}
	if fr.EnvsTruncated {
		fmt.Fprintf(os.Stderr, "gocci: warning: %s: environment cap (MaxEnvs) hit, matches dropped; results may be incomplete\n", fr.Name)
	}
	for _, w := range fr.Warnings {
		fmt.Fprintf(os.Stderr, "gocci: verify: %s: %s\n", fr.Name, w)
	}
	if fr.Demoted {
		fmt.Fprintf(os.Stderr, "gocci: verify: %s: unsafe edit demoted; file left unchanged\n", fr.Name)
	}
	g.findings = append(g.findings, fr.Findings...)
	if g.check {
		// Match-only reporting: findings are emitted at the end of the run;
		// any transform a mixed patch set produced is deliberately dropped.
		return nil
	}
	if !fr.Changed() {
		return nil
	}
	if g.inPlace {
		if err := cliutil.WriteInPlace(fr.Name, fr.Output); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "patched %s\n", fr.Name)
	} else if !g.quiet {
		fmt.Print(fr.Diff)
	}
	return nil
}

// verifySuffix renders the demoted/warnings tail of a --stats line; empty
// unless --verify ran.
func verifySuffix(on bool, demoted, warnings int) string {
	if !on {
		return ""
	}
	return fmt.Sprintf(", %d demoted, %d warnings", demoted, warnings)
}

// runRecursive applies the patches per-file across directory trees with the
// worker pool, as one campaign: each file sees the patches in command order
// but is parsed at most once, and file contents are read lazily inside the
// pool.
func (g *gocci) runRecursive(patches []*sempatch.Patch, opts sempatch.Options, dirs []string) {
	paths, err := collectSources(dirs)
	if err != nil {
		fatal(err)
	}
	ca := sempatch.NewCampaign(patches, opts)
	st, err := ca.ApplyAllPathsFunc(paths, func(fr sempatch.CampaignFileResult) error {
		out := sempatch.FileResult{Name: fr.Name, Output: fr.Output, Diff: fr.Diff, Err: fr.Err,
			Findings: fr.Findings()}
		for i, o := range fr.Patches {
			for rule, n := range o.MatchCount {
				g.ruleMatches[i][rule] += n
			}
			out.EnvsTruncated = out.EnvsTruncated || o.EnvsTruncated
			out.Warnings = append(out.Warnings, o.Warnings...)
			out.Demoted = out.Demoted || o.Demoted
		}
		return g.emit(out)
	})
	g.cacheStatus = ca.CacheStatus()
	if err != nil {
		fatal(err)
	}
	g.cst = st
}

// runSingle processes an explicit file list in one engine run per patch,
// preserving cross-file metavariable flow between rules (a binding made in
// file1.c can drive a transformation in file2.c). With several patches,
// each runs over the previous one's outputs and the printed diff is the
// net effect.
func (g *gocci) runSingle(patches []*sempatch.Patch, opts sempatch.Options, paths []string) {
	var files []sempatch.File
	orig := map[string]string{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		files = append(files, sempatch.File{Name: path, Src: string(b)})
		orig[path] = string(b)
	}
	// Like recursive mode, a -D name must be declared virtual by at least
	// one patch, and each patch only sees the names it declares — a
	// campaign-wide define set may mix names for different patches. An empty
	// campaign run reports exactly that configuration error, worded as
	// recursive mode words it.
	if _, err := sempatch.NewCampaign(patches, opts).ApplyAllFunc(nil, nil); err != nil {
		fatal(err)
	}
	outputs := map[string]string{}
	diffs := map[string]string{}
	for _, f := range files {
		outputs[f.Name], diffs[f.Name] = f.Src, ""
	}
	for pi, patch := range patches {
		popts := opts
		popts.Defines = intersectDefines(opts.Defines, patch.Virtuals())
		res, err := sempatch.NewApplier(patch, popts).Apply(files...)
		if err != nil {
			fatal(err)
		}
		if res.EnvsTruncated {
			fmt.Fprintln(os.Stderr, "gocci: warning: environment cap (MaxEnvs) hit, matches dropped; results may be incomplete")
		}
		for rule, n := range res.MatchCount {
			g.ruleMatches[pi][rule] += n
			g.st.Matches += n
		}
		g.findings = append(g.findings, res.Findings...)
		for i, f := range files {
			outputs[f.Name] = res.Outputs[f.Name]
			diffs[f.Name] = res.Diffs[f.Name]
			files[i].Src = res.Outputs[f.Name]
		}
	}
	g.st.Files = len(files)
	g.st.Parsed = len(files) // the single-run engine parses every file
	for _, path := range paths {
		fr := sempatch.FileResult{Name: path, Output: outputs[path]}
		if len(patches) == 1 {
			fr.Diff = diffs[path]
		} else if outputs[path] != orig[path] {
			fr.Diff = sempatch.Diff(path, orig[path], outputs[path])
		}
		if fr.Changed() {
			g.st.Changed++
		}
		if err := g.emit(fr); err != nil {
			fatal(err)
		}
	}
}

// collectSources gathers C/C++/CUDA files below dirs via the shared
// collector, reporting skipped entries in gocci's prefix style.
func collectSources(dirs []string) ([]string, error) {
	return cliutil.CollectSources(dirs, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gocci: "+format+"\n", args...)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gocci:", err)
	os.Exit(1)
}

// intersectDefines keeps the defines a patch declares virtual.
func intersectDefines(defines, virtuals []string) []string {
	decl := map[string]bool{}
	for _, v := range virtuals {
		decl[v] = true
	}
	var out []string
	for _, d := range defines {
		if decl[d] {
			out = append(out, d)
		}
	}
	return out
}

// defineList collects repeatable -D flags.
type defineList []string

func (d *defineList) String() string { return fmt.Sprint([]string(*d)) }

func (d *defineList) Set(v string) error {
	*d = append(*d, v)
	return nil
}
