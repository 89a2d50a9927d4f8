package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	sempatch "repro"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/hpc"
)

// Main runs the gocci command line over args (everything after the program
// name) and returns the process exit code: 0 success, 1 a runtime failure,
// 2 a usage error. tool names the binary in messages, usage, and
// --version, so an alias binary can call Main with a fixed argument prefix
// under its own name.
func Main(tool string, args []string) int {
	// Subcommand dispatch precedes flag parsing: `gocci vet patch.cocci`
	// lints semantic patches without touching any source tree.
	if len(args) > 0 && args[0] == "vet" {
		return runVet(tool, args[1:])
	}
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	showVersion := buildinfo.Setup(fs, tool)
	spFile := fs.String("sp-file", "", "semantic patch file (.cocci); may also be given as a positional argument")
	cxx := fs.Int("cxx", 0, "enable C++ mode with the given standard (11, 17, 23); 0 = C")
	cuda := fs.Bool("cuda", false, "enable CUDA <<< >>> kernel launches")
	inPlace := fs.Bool("in-place", false, "rewrite files instead of printing diffs")
	quiet := fs.Bool("quiet", false, "suppress diffs; only report matched rules")
	recurse := fs.Bool("r", false, "treat arguments as directories; apply to all C/C++ sources below them")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker count for batch (-r or --campaign) runs")
	stats := fs.Bool("stats", false, "print a files/matches/changes summary to stderr")
	noPrefilter := fs.Bool("no-prefilter", false, "parse every file in batch runs, even those the patch provably cannot touch")
	cacheDir := fs.String("cache-dir", "", "persistent corpus-index directory for batch (-r or --campaign) runs; re-runs over unchanged files replay cached results")
	verify := fs.Bool("verify", false, "run the post-transform safety checker in batch (-r or --campaign) runs; unsafe edits are demoted to warnings")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON profile of the run to this file (load in Perfetto)")
	profile := fs.Bool("profile", false, "print an aggregate profile to stderr: self-time per stage, per-rule attribution, cache and prefilter effectiveness")
	listCampaigns := fs.Bool("list-campaigns", false, "list the shipped HPC campaigns and exit")
	campaignName := fs.String("campaign", "", "run a shipped HPC campaign by name (see --list-campaigns) in addition to any .cocci arguments")
	check := fs.Bool("check", false, "match-only static analysis: report check-rule findings instead of diffs; exit 1 when findings at or above --fail-on remain")
	format := fs.String("format", "text", "finding output format for --check: text, json (NDJSON, the gocci-serve stream shape), or sarif")
	baselinePath := fs.String("baseline", "", "baseline file for --check: suppress the findings it records (write it with --baseline-write)")
	baselineWrite := fs.Bool("baseline-write", false, "record the current --check findings to --baseline PATH instead of gating on them")
	failOn := fs.String("fail-on", "error", "minimum finding severity that fails a --check run: error, warning, or info")
	var defines defineList
	fs.Var(&defines, "D", "define a virtual dependency name (repeatable)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *showVersion {
		fmt.Printf("%s %s\n", tool, buildinfo.Version())
		return 0
	}
	if *listCampaigns {
		for _, c := range hpc.Campaigns() {
			fmt.Printf("%-16s v%-3s %s (%s)\n", c.Name, c.Version, c.Title,
				strings.Join(c.PatchNames(), ", "))
		}
		return 0
	}
	cmd := &command{tool: tool, inPlace: *inPlace, quiet: *quiet, check: *check}

	// Positional patches: every argument ending in .cocci, in command
	// order, so `gocci -j 8 -r dir a.cocci b.cocci` runs a campaign.
	var patchFiles []string
	if *spFile != "" {
		patchFiles = append(patchFiles, *spFile)
	}
	var paths []string
	for _, a := range fs.Args() {
		if strings.HasSuffix(a, ".cocci") {
			patchFiles = append(patchFiles, a)
		} else {
			paths = append(paths, a)
		}
	}
	if (len(patchFiles) == 0 && *campaignName == "") || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "usage: %s --sp-file patch.cocci [options] file.c ...\n", tool)
		fmt.Fprintf(os.Stderr, "       %s [-j N] -r [options] dir ... patch.cocci [more.cocci ...]\n", tool)
		fmt.Fprintf(os.Stderr, "       %s --campaign NAME [-r] [options] path ...\n", tool)
		fmt.Fprintf(os.Stderr, "       %s vet patch.cocci [more.cocci ...]\n", tool)
		fs.PrintDefaults()
		return 2
	}
	cfg := checkConfig{enabled: *check, format: *format, baselinePath: *baselinePath,
		baselineWrite: *baselineWrite, failOn: *failOn}
	if err := cfg.validate(*inPlace); err != nil {
		cmd.warnf("%v", err)
		return 2
	}

	var campaign *hpc.Campaign
	var patchNames []string
	if *campaignName != "" {
		c, ok := hpc.ByName(*campaignName)
		if !ok {
			cmd.warnf("unknown campaign %q; see --list-campaigns", *campaignName)
			return 2
		}
		campaign = c
		for _, n := range c.PatchNames() {
			patchNames = append(patchNames, c.Name+"/"+n)
		}
	}
	var extra []*sempatch.Patch
	for _, pf := range patchFiles {
		p, err := sempatch.ParsePatchFile(pf)
		if err != nil {
			return cmd.fail(err)
		}
		extra = append(extra, p)
		patchNames = append(patchNames, pf)
	}
	// A shipped campaign always runs on the batch runner, which registers
	// its script hooks: explicit files are then batch inputs, not one
	// cross-file engine run.
	batch := *recurse || campaign != nil
	if *cacheDir != "" && !batch {
		cmd.warnf("warning: --cache-dir only applies to batch (-r or --campaign) runs; ignored")
		*cacheDir = ""
	}
	if *verify && !batch {
		cmd.warnf("warning: --verify only applies to batch (-r or --campaign) runs; ignored")
		*verify = false
	}
	opts := sempatch.Options{
		CPlusPlus: *cxx > 0, Std: *cxx, CUDA: *cuda,
		Defines: defines, Workers: *workers, NoPrefilter: *noPrefilter,
		CacheDir: *cacheDir, Verify: *verify,
	}
	var tracer *sempatch.Tracer
	if *tracePath != "" || *profile {
		tracer = sempatch.NewTracer()
		opts.Tracer = tracer
	}
	patches := extra
	var ca *sempatch.Campaign
	switch {
	case campaign != nil:
		// The campaign dictates the dialect (C++ standard, CUDA) for every
		// patch of the run, the extra .cocci ones included.
		var err error
		if ca, err = campaign.Build(opts, extra...); err != nil {
			return cmd.fail(err)
		}
		patches = ca.Patches()
	case batch:
		ca = sempatch.NewCampaign(patches, opts)
	}
	if cfg.enabled {
		cmd.warnIfNoChecks(patches)
	}

	cmd.ruleMatches = make([]map[string]int, len(patches))
	for i := range cmd.ruleMatches {
		cmd.ruleMatches[i] = map[string]int{}
	}
	start := time.Now()
	var err error
	if batch {
		if *recurse {
			paths, err = CollectSources(paths, cmd.warnf)
		}
		if err == nil {
			err = cmd.runBatch(ca, paths)
		}
	} else {
		err = cmd.runSingle(patches, opts, paths)
	}
	if err != nil {
		return cmd.fail(err)
	}
	elapsed := time.Since(start)

	if *quiet {
		// Counts are per patch: two patches may both name a rule `fix`,
		// and each line reports only its own patch's matches.
		for i, p := range patches {
			for _, r := range p.Rules() {
				if len(patches) > 1 {
					fmt.Printf("%s: rule %-20s matches=%d\n", patchNames[i], r, cmd.ruleMatches[i][r])
				} else {
					fmt.Printf("rule %-20s matches=%d\n", r, cmd.ruleMatches[i][r])
				}
			}
		}
	}
	if *stats {
		took := elapsed.Round(time.Millisecond)
		switch {
		case batch && (len(patches) > 1 || campaign != nil):
			head := ""
			if campaign != nil {
				head = fmt.Sprintf("campaign %s v%s: ", campaign.Name, campaign.Version)
			}
			cmd.warnf("%s%d files scanned, %d changed, %d errors, parsed: %d in %v",
				head, cmd.cst.Files, cmd.cst.Changed, cmd.cst.Errors, cmd.cst.Parsed, took)
			for _, ps := range cmd.cst.PerPatch {
				cmd.warnf("  patch %s: %d skipped by prefilter, %d cached, %d matched (%d matches), %d changed, %d functions matched, %d functions cached%s",
					ps.Patch, ps.Skipped, ps.Cached, ps.Matched, ps.Matches, ps.Changed, ps.FuncsMatched, ps.FuncsCached,
					verifySuffix(*verify, ps.Demoted, ps.Warnings))
			}
		case batch:
			ps := cmd.cst.PerPatch[0]
			cmd.warnf("%d files scanned, %d skipped by prefilter, %d cached, %d matched (%d matches), %d changed, %d errors, %d functions matched, %d functions cached%s in %v",
				cmd.cst.Files, ps.Skipped, ps.Cached, ps.Matched, ps.Matches, cmd.cst.Changed, cmd.cst.Errors, ps.FuncsMatched, ps.FuncsCached,
				verifySuffix(*verify, ps.Demoted, ps.Warnings), took)
		default:
			// One engine run over all files: matches are not attributed
			// per file, so no per-file "matched" count is reported.
			matches := 0
			for _, m := range cmd.ruleMatches {
				for _, n := range m {
					matches += n
				}
			}
			cmd.warnf("%d files scanned, %d matches, %d changed in %v",
				cmd.cst.Files, matches, cmd.cst.Changed, took)
		}
		// Fireable rules with zero matches across the whole run are dead
		// weight in the patch set; surface them so campaigns can be pruned.
		// Match-only check rules are labelled as such: a silent check rule
		// means "nothing to report here", not a transformation that missed.
		// A shipped campaign's members are dictionaries whose entries mostly
		// stay silent on any one tree, so only the .cocci files are reported.
		for i := len(patches) - len(extra); i < len(patches); i++ {
			p := patches[i]
			isCheck := map[string]bool{}
			for _, r := range p.CheckRules() {
				isCheck[r] = true
			}
			for _, r := range p.FireableRules() {
				if cmd.ruleMatches[i][r] != 0 {
					continue
				}
				kind := "rule"
				if isCheck[r] {
					kind = "check rule"
				}
				if len(patches) > 1 {
					cmd.warnf("%s %s (%s) never fired", kind, r, patchNames[i])
				} else {
					cmd.warnf("%s %s never fired", kind, r)
				}
			}
		}
	}
	if *profile {
		fmt.Fprint(os.Stderr, tracer.Profile().Format())
	}
	if *tracePath != "" {
		if err := WriteTrace(*tracePath, tracer); err != nil {
			return cmd.fail(err)
		}
		cmd.warnf("trace written to %s", *tracePath)
	}
	cmd.reportCache()
	if cfg.enabled {
		return cmd.finishCheck(cfg)
	}
	if cmd.cst.Changed == 0 {
		fmt.Fprintln(os.Stderr, "no changes")
	}
	if cmd.hadError {
		return 1
	}
	return 0
}

// command accumulates run state shared by all modes.
type command struct {
	tool    string // message prefix
	inPlace bool
	quiet   bool
	check   bool // --check: collect findings, suppress diffs and writes
	// cst is the run's statistics; a cross-file run fills only Files,
	// Changed and Parsed.
	cst         sempatch.CampaignStats
	cacheStatus sempatch.CacheStatus
	ruleMatches []map[string]int // per patch: rule name -> match count
	findings    []sempatch.Finding
	hadError    bool
}

// warnf prints one tool-prefixed line to stderr.
func (c *command) warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, c.tool+": "+format+"\n", args...)
}

// fail reports a run-ending error and returns its exit code.
func (c *command) fail(err error) int {
	c.warnf("%v", err)
	return 1
}

// reportCache surfaces persistent-cache trouble: a rebuilt incompatible
// cache and dropped corrupt entries are warnings (the results are exact
// either way — entries are re-derived, never trusted), each with the
// remediation of clearing the directory if the condition repeats.
func (c *command) reportCache() {
	cs := c.cacheStatus
	if !cs.Enabled {
		return
	}
	if cs.Rebuilt != "" {
		c.warnf("warning: cache at %s was incompatible (%s); it was dropped and rebuilt", cs.Dir, cs.Rebuilt)
	}
	if cs.CorruptEntries > 0 {
		c.warnf("warning: %d corrupt cache entries at %s were dropped and rebuilt, never trusted; if this repeats, delete the directory to reset the cache", cs.CorruptEntries, cs.Dir)
	}
}

// fileOutcome is one file's result as emit reports it: a batch result
// folded over its member patches, or one file of a cross-file engine run.
type fileOutcome struct {
	name, output, diff string
	envsTruncated      bool
	findings           []sempatch.Finding
	err                error
}

// emit handles one per-file outcome: report errors, then write or print
// changes.
func (c *command) emit(fo fileOutcome) error {
	if fo.err != nil {
		c.warnf("%v", fo.err)
		c.hadError = true
		return nil
	}
	if fo.envsTruncated {
		c.warnf("warning: %s: environment cap (MaxEnvs) hit, matches dropped; results may be incomplete", fo.name)
	}
	c.findings = append(c.findings, fo.findings...)
	if c.check {
		// Match-only reporting: findings are emitted at the end of the run;
		// any transform a mixed patch set produced is deliberately dropped.
		return nil
	}
	if fo.diff == "" {
		return nil
	}
	if c.inPlace {
		if err := WriteInPlace(fo.name, fo.output); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "patched %s\n", fo.name)
	} else if !c.quiet {
		fmt.Print(fo.diff)
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

// runBatch applies the campaign per file across paths with the worker
// pool: each file sees the patches in command order but is parsed at most
// once, and file contents are read lazily inside the pool.
func (c *command) runBatch(ca *sempatch.Campaign, paths []string) error {
	st, err := ca.ApplyAllPathsFunc(paths, func(fr sempatch.CampaignFileResult) error {
		out := fileOutcome{name: fr.Name, output: fr.Output, diff: fr.Diff, err: fr.Err,
			findings: fr.Findings()}
		for i, o := range fr.Patches {
			for rule, n := range o.MatchCount {
				c.ruleMatches[i][rule] += n
			}
			out.envsTruncated = out.envsTruncated || o.EnvsTruncated
			for _, w := range o.Warnings {
				c.warnf("verify: %s: %s", fr.Name, w)
			}
			if o.Demoted {
				c.warnf("verify: %s: unsafe edit by %s demoted", fr.Name, o.Patch)
			}
		}
		return c.emit(out)
	})
	c.cacheStatus = ca.CacheStatus()
	c.cst = st
	return err
}

// runSingle processes an explicit file list in one engine run per patch,
// preserving cross-file metavariable flow between rules (a binding made in
// file1.c can drive a transformation in file2.c). With several patches,
// each runs over the previous one's outputs and the printed diff is the
// net effect.
func (c *command) runSingle(patches []*sempatch.Patch, opts sempatch.Options, paths []string) error {
	var files []sempatch.File
	orig := map[string]string{}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files = append(files, sempatch.File{Name: path, Src: string(b)})
		orig[path] = string(b)
	}
	// Like batch mode, a -D name must be declared virtual by at least one
	// patch, and each patch only sees the names it declares — a run-wide
	// define set may mix names for different patches. An empty campaign
	// run reports exactly that configuration error, worded as batch mode
	// words it.
	if _, err := sempatch.NewCampaign(patches, opts).ApplyAllFunc(nil, nil); err != nil {
		return err
	}
	outputs := map[string]string{}
	diffs := map[string]string{}
	for _, f := range files {
		outputs[f.Name], diffs[f.Name] = f.Src, ""
	}
	for pi, patch := range patches {
		popts := opts
		popts.Defines = core.IntersectDefines(opts.Defines, patch.Virtuals())
		res, err := sempatch.NewApplier(patch, popts).Apply(files...)
		if err != nil {
			return err
		}
		if res.EnvsTruncated {
			c.warnf("warning: environment cap (MaxEnvs) hit, matches dropped; results may be incomplete")
		}
		for rule, n := range res.MatchCount {
			c.ruleMatches[pi][rule] += n
		}
		c.findings = append(c.findings, res.Findings...)
		for i, f := range files {
			outputs[f.Name] = res.Outputs[f.Name]
			diffs[f.Name] = res.Diffs[f.Name]
			files[i].Src = res.Outputs[f.Name]
		}
	}
	changed := 0
	for _, path := range paths {
		fo := fileOutcome{name: path, output: outputs[path]}
		if len(patches) == 1 {
			fo.diff = diffs[path]
		} else if outputs[path] != orig[path] {
			fo.diff = sempatch.Diff(path, orig[path], outputs[path])
		}
		if fo.diff != "" {
			changed++
		}
		if err := c.emit(fo); err != nil {
			return err
		}
	}
	// The single-run engine parses every file.
	c.cst = sempatch.CampaignStats{Files: len(files), Changed: changed, Parsed: len(files)}
	return nil
}

// defineList collects repeatable -D flags.
type defineList []string

func (d *defineList) String() string { return fmt.Sprint([]string(*d)) }

func (d *defineList) Set(v string) error {
	*d = append(*d, v)
	return nil
}
