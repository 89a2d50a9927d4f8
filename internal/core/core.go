// Package core implements the semantic patch engine: it runs the rules of a
// parsed SmPL patch, in order, over a set of C/C++ source files. Match rules
// bind metavariables and record token edits; script rules transform bindings
// through the restricted Python interpreter or registered Go functions;
// environments flow from rule to rule exactly as in Coccinelle, keyed by
// rule-qualified metavariable names. Edited files are re-parsed lazily,
// just before the next match rule that passes the required-atom gate runs,
// so later rules match the patched code and an output no later rule can
// match never has to re-parse at all. The re-parse is incremental: it
// re-lexes the whole text but parses again only the top-level declarations
// the edits touched, and takes the others from the old tree with their
// token indices shifted (cparse.Reparse). A tree the caller still holds is
// never changed: declarations taken from it are copies.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/transform"
)

// OutputVersion names what the engine makes of a given patch, input and
// options: the output text, the match counts and the findings. The result
// cache keys on it, so outcomes cached by an engine that printed something
// else miss and are recomputed. Bump it with every change that alters an
// output; TestOutputDigestTripwire fails until it is bumped.
const OutputVersion = "2"

// Options configures an engine run.
type Options struct {
	CPlusPlus bool
	Std       int // 11, 17, 23
	CUDA      bool
	// MaxEnvs caps the environment set size (default 4096).
	MaxEnvs int
	// MaxMatchesPerRule caps matches per rule per file (default unlimited).
	MaxMatchesPerRule int
	// Defines sets virtual dependency names to true (spatch -D). Names not
	// declared `virtual` in the patch are rejected at Run time.
	Defines []string
}

// SourceFile is one input file.
type SourceFile struct {
	Name string
	Src  string
}

// ScriptFunc is a native Go replacement for a script rule body: it receives
// the rule's input bindings and returns its output bindings.
type ScriptFunc func(inputs map[string]string) (map[string]string, error)

// Result reports the outcome of a run.
type Result struct {
	// Outputs maps file name to transformed source (always present, equal
	// to the input when nothing matched).
	Outputs map[string]string
	// Diffs maps file name to a unified diff ("" when unchanged); filled by
	// Run only.
	Diffs map[string]string
	// Matched reports which rules matched at least once.
	Matched map[string]bool
	// MatchCount counts matches per rule.
	MatchCount map[string]int
	// EnvCount is the number of final environments.
	EnvCount int
	// EnvsTruncated reports that the environment set hit Options.MaxEnvs
	// and further matches were dropped: the outputs are valid but possibly
	// incomplete, and the caller should rerun with a larger cap.
	EnvsTruncated bool
	// Findings are the reports emitted by match-only check rules (star-line
	// bodies or gocci:check headers), deduplicated, in emission order.
	Findings []analysis.Finding
}

// Changed lists the names of files whose output differs from the input.
func (r *Result) Changed() []string {
	var out []string
	for name, d := range r.Diffs {
		if d != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Engine applies one patch to source files.
type Engine struct {
	patch    *smpl.Patch
	compiled *Compiled
	opts     Options
	interp   *minipy.Interp
	hosts    map[string]ScriptFunc
	fresh    map[string]int
	trace    *obs.Track
	// seqOnly withholds the control-flow graphs from every matcher, so each
	// pattern runs on the syntactic sequence matcher. It is a test seam:
	// the sequence matcher is the reference the CFG engine's outputs are
	// compared against.
	seqOnly bool
	// onReparse, when set, sees every tree (or error) the lazy re-parse
	// builds and how many declarations it reused. It is a test seam: the
	// equivalence oracle compares each with a full parse of the same text.
	onReparse func(name, src string, f *cast.File, reused int, err error)
	// fullReparse makes every re-parse a full parse: the reference run the
	// incremental path's outputs are compared against.
	fullReparse bool
}

// New creates an engine for a parsed patch.
func New(patch *smpl.Patch, opts Options) *Engine {
	return NewCompiled(Compile(patch), opts)
}

// NewCompiled creates an engine from pre-compiled patch artifacts. Multiple
// engines may share one Compiled value concurrently; each engine itself must
// only be used from one goroutine at a time.
func NewCompiled(c *Compiled, opts Options) *Engine {
	if opts.MaxEnvs == 0 {
		opts.MaxEnvs = 4096
	}
	return &Engine{
		patch:    c.Patch,
		compiled: c,
		opts:     opts,
		interp:   minipy.New(),
		hosts:    map[string]ScriptFunc{},
		fresh:    map[string]int{},
	}
}

// Reset clears the engine's accumulated run state — fresh-identifier
// counters and script-interpreter globals — so the next Run behaves exactly
// like a run on a newly constructed engine. Registered Go script handlers
// are kept. Batch workers call this between files so that results do not
// depend on which worker processed which file.
func (e *Engine) Reset() {
	e.interp = minipy.New()
	e.fresh = map[string]int{}
}

// RegisterScript installs a native Go handler for the named script rule,
// overriding the Python interpreter for that rule.
func (e *Engine) RegisterScript(ruleName string, fn ScriptFunc) {
	e.hosts[ruleName] = fn
}

// SetTrace attaches an observability track; the engine records parse, match
// (attributed per rule), cfg, and render spans on it. A nil track disables
// tracing; since a Track is single-goroutine, the engine must not be shared
// across goroutines while a track is set. RunSegment ignores this field and
// takes its track from the job, because segment jobs fan out goroutines over
// one shared engine.
func (e *Engine) SetTrace(tk *obs.Track) {
	e.trace = tk
}

// fileState tracks one file through the run.
type fileState struct {
	name string
	src  string
	// file is src's parse and ed collects edits against its tokens; both
	// are nil between a refresh and the next rule that passes the gate.
	file  *cast.File
	ed    *transform.EditSet
	dirty bool
	// prev and prevEd are the tree and edits a refresh retired; the next
	// parse reuses the declarations the edits left alone. owned reports
	// that no one else holds file (the engine built it, or the caller
	// handed it over), so its declarations may be shifted in place.
	prev   *cast.File
	prevEd *transform.EditSet
	owned  bool
	trace  *obs.Track
	// cfgs caches one control-flow graph per function for the current
	// parse. The CFG dots engine reads through cfg(); a refresh
	// invalidates the cache with the tree. Before this cache the graph was
	// rebuilt per match — O(matches × function size) on match-dense files;
	// TestCFGCacheOneBuildPerFunction pins one build per function per
	// parse.
	cfgs map[*cast.FuncDef]*cfg.Graph
	// seg caches the file's function segmentation for finding identity;
	// built on the first check-rule match, invalidated with the parse.
	seg     *cast.Segmentation
	segDone bool
	// words memoises identifier-word presence in src for the per-rule
	// required-atom gate: each word is scanned for at most once per text,
	// however many rules ask. A refresh clears it with the tree, so a later
	// rule sees the words an earlier rule inserted.
	words map[string]bool
}

// hasWord reports whether the current text contains w as a complete
// identifier word (index.ContainsWord), memoised per parse.
func (st *fileState) hasWord(w string) bool {
	if v, ok := st.words[w]; ok {
		return v
	}
	if st.words == nil {
		st.words = map[string]bool{}
	}
	v := index.ContainsWord(st.src, w)
	st.words[w] = v
	return v
}

// segmentation lazily segments the current parse (nil for files without
// function definitions).
func (st *fileState) segmentation() *cast.Segmentation {
	if !st.segDone {
		sp := st.trace.Start(obs.StageSegment).File(st.name)
		st.seg = cast.SegmentFile(st.file)
		sp.End()
		st.segDone = true
	}
	return st.seg
}

// cfg returns the cached control-flow graph for a function of this file's
// current parse, building it on first use.
func (st *fileState) cfg(fd *cast.FuncDef) *cfg.Graph {
	if g, ok := st.cfgs[fd]; ok {
		return g
	}
	if st.cfgs == nil {
		st.cfgs = map[*cast.FuncDef]*cfg.Graph{}
	}
	sp := st.trace.Start(obs.StageCFG).File(st.name)
	if fd.Name != nil {
		sp.Func(fd.Name.Name)
	}
	g := cfg.Build(fd)
	sp.End()
	st.cfgs[fd] = g
	return g
}

// matcher returns a matcher for the pattern over the file's current parse.
// The matcher picks the dots engine from the pattern alone; the graphs it
// may ask for are built once per function per parse.
func (e *Engine) matcher(st *fileState, pat *smpl.Pattern, metas *smpl.MetaTable) *match.Matcher {
	m := &match.Matcher{Pat: pat, Metas: metas, Code: st.file, CFGs: st.cfg}
	if e.seqOnly {
		m.CFGs = nil
	}
	return m
}

func (e *Engine) parseOpts() cparse.Options {
	return cparse.Options{CPlusPlus: e.opts.CPlusPlus, Std: e.opts.Std, CUDA: e.opts.CUDA}
}

// ParsedFile pairs a source file with its parse, for callers that manage
// parsing themselves: the campaign engine parses each file once and shares
// the tree across every patch's engine, and cached runs skip parsing
// altogether. The File must have been produced by parsing Src with options
// matching the engine's dialect.
type ParsedFile struct {
	Name string
	Src  string
	File *cast.File
	// Owned hands File over to the engine: a re-parse may then shift the
	// tree's declarations in place instead of copying them, so the caller
	// must not use File after the run. Leave it false for a tree anyone
	// else still holds.
	Owned bool
}

// Run applies the patch to the files.
func (e *Engine) Run(files []SourceFile) (*Result, error) {
	parsed := make([]ParsedFile, 0, len(files))
	for _, f := range files {
		sp := e.trace.Start(obs.StageParse).File(f.Name).Outcome(obs.OutcomeFull)
		cf, err := cparse.Parse(f.Name, f.Src, e.parseOpts())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", f.Name, err)
		}
		parsed = append(parsed, ParsedFile{Name: f.Name, Src: f.Src, File: cf, Owned: true})
	}
	res, err := e.RunParsed(parsed)
	if err != nil {
		return nil, err
	}
	rsp := e.trace.Start(obs.StageRender)
	res.Diffs = make(map[string]string, len(files))
	for _, f := range files {
		res.Diffs[f.Name] = diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, res.Outputs[f.Name])
	}
	rsp.End()
	return res, nil
}

// RunParsed is Run over pre-parsed files, without the diffs: its caller
// (the batch subsystem) diffs each file once after every patch has run, so
// Result.Diffs stays nil and Result.Changed reports nothing. The engine
// never mutates a given tree or its token file unless the caller hands it
// over (ParsedFile.Owned): edits accumulate in per-run EditSets,
// transformed text is re-parsed into fresh trees, and the declarations a
// re-parse reuses from a given tree are copied. So one parse may be shared
// sequentially across any number of engine runs (and concurrently across
// engines, since matching only reads it).
func (e *Engine) RunParsed(files []ParsedFile) (*Result, error) {
	states := make([]*fileState, 0, len(files))
	for _, f := range files {
		states = append(states, &fileState{name: f.Name, src: f.Src, file: f.File, ed: transform.NewEditSet(f.File.Toks), owned: f.Owned, trace: e.trace})
	}

	res := &Result{
		Outputs:    map[string]string{},
		Matched:    map[string]bool{},
		MatchCount: map[string]int{},
	}
	// Virtual rules: dependency atoms set by the caller.
	if err := ValidateDefines(e.opts.Defines, e.patch); err != nil {
		return nil, err
	}
	for _, d := range e.opts.Defines {
		res.Matched[d] = true
	}
	envs := []match.Env{{}}

	var finalizers []*smpl.Rule
	for _, rule := range e.patch.Rules {
		if rule.Kind == smpl.FinalizeRule {
			finalizers = append(finalizers, rule)
			continue
		}
		if !rule.Depends.Eval(res.Matched) {
			continue
		}
		var err error
		switch rule.Kind {
		case smpl.InitializeRule:
			err = e.runInit(rule)
		case smpl.ScriptRule:
			envs, err = e.runScript(rule, envs, res)
		case smpl.MatchRule:
			envs, err = e.runMatch(rule, envs, states, res)
		}
		if err != nil {
			return nil, err
		}
		if len(envs) > e.opts.MaxEnvs {
			envs = envs[:e.opts.MaxEnvs]
			res.EnvsTruncated = true
		}
	}
	for _, rule := range finalizers {
		if err := e.runInit(rule); err != nil {
			return nil, err
		}
	}

	rsp := e.trace.Start(obs.StageRender)
	for _, st := range states {
		if st.dirty {
			st.src = st.ed.Apply()
		}
		res.Outputs[st.name] = st.src
	}
	rsp.End()
	res.EnvCount = len(envs)
	res.Findings = analysis.Dedupe(res.Findings)
	return res, nil
}

// runInit executes an initialize/finalize rule once.
func (e *Engine) runInit(rule *smpl.Rule) error {
	if fn, ok := e.hosts[rule.Name]; ok {
		_, err := fn(nil)
		return err
	}
	_, err := e.interp.Exec(rule.Code, nil)
	if err != nil {
		return fmt.Errorf("rule %s: %w", rule.Name, err)
	}
	return nil
}

// runScript executes a script rule for every environment that can supply its
// inputs.
func (e *Engine) runScript(rule *smpl.Rule, envs []match.Env, res *Result) ([]match.Env, error) {
	var out []match.Env
	for _, env := range envs {
		locals := map[string]string{}
		missing := false
		for _, in := range rule.Inputs {
			b, ok := env[in.Rule+"."+in.Remote]
			if !ok {
				missing = true
				break
			}
			locals[in.Local] = b.Text
		}
		if missing {
			out = append(out, env)
			continue
		}
		outputs, err := e.execScript(rule, locals)
		if err != nil {
			if _, isKey := err.(*minipy.KeyError); isKey {
				// Python-side KeyError: this environment does not apply.
				out = append(out, env)
				continue
			}
			return nil, fmt.Errorf("script rule %s: %w", rule.Name, err)
		}
		next := env.Clone()
		for name, val := range outputs {
			next[rule.Name+"."+name] = val
		}
		res.Matched[rule.Name] = true
		res.MatchCount[rule.Name]++
		out = append(out, next)
	}
	return dedupEnvs(out), nil
}

func (e *Engine) execScript(rule *smpl.Rule, locals map[string]string) (map[string]match.Binding, error) {
	if fn, ok := e.hosts[rule.Name]; ok {
		raw, err := fn(locals)
		if err != nil {
			return nil, err
		}
		out := map[string]match.Binding{}
		for k, v := range raw {
			out[k] = match.NewValueBinding(cast.MetaIdentKind, v)
		}
		return out, nil
	}
	vals, err := e.interp.Exec(rule.Code, locals)
	if err != nil {
		return nil, err
	}
	out := map[string]match.Binding{}
	for k, v := range vals {
		kind := cast.MetaIdentKind
		switch v.Tag {
		case "type":
			kind = cast.MetaTypeKind
		case "pragmainfo":
			kind = cast.MetaPragmaInfoKind
		case "expr":
			kind = cast.MetaExprKind
		}
		out[k] = match.NewValueBinding(kind, v.Str)
	}
	return out, nil
}

// runMatch executes a match rule over all files for every environment.
func (e *Engine) runMatch(rule *smpl.Rule, envs []match.Env, states []*fileState, res *Result) ([]match.Env, error) {
	// Earlier rules may have edited files; bring their text up to date so
	// the gate below reads the patched code. The trees are rebuilt later,
	// and only for files that pass the gate.
	refresh(states)
	preMatches := res.MatchCount[rule.Name]
	msp := e.trace.Start(obs.StageMatch).Rule(rule.Name)
	defer func() { msp.Matches(res.MatchCount[rule.Name] - preMatches).End() }()
	isCheck := rule.IsCheck()
	preFindings := len(res.Findings)
	if isCheck {
		defer func() {
			csp := e.trace.Start(obs.StageCheck).Rule(rule.Name)
			csp.Matches(len(res.Findings) - preFindings).End()
		}()
	}
	cr := e.compiled.rule(rule)
	metas := cr.metas
	// Names this rule inherits: local -> qualified key.
	inherits := cr.inherits

	// `when strict`/`when forall` are path quantifiers only the CFG engine
	// can decide. Refuse to degrade them silently to existential matching:
	// a quantified dots the pattern's engine cannot decide is an error, not
	// a weaker match.
	if !match.QuantifiersDecidable(rule.Pattern, metas) {
		return nil, fmt.Errorf(
			"rule %s: `when strict`/`when forall` requires the CFG dots engine, which cannot handle this pattern (quantified dots must be at the top level of a pattern without statement-list metavariables, compound anchors, or multi-statement disjunction branches)",
			rule.Name)
	}

	// Required-atom gate: a file whose current text lacks one of the
	// rule's literal identifiers cannot match, so the matcher never walks
	// it. The answer is exact for this parse (the index's one-sided
	// guarantee, per rule), so results do not change.
	live := e.gate(cr, states)
	if len(live) == 0 {
		msp.Outcome(obs.OutcomeSkip)
	}
	// Parse lazily, here, rather than eagerly after each transformation:
	// a file no later rule can match — in particular a final rule's output
	// — never re-parses at all (it may use constructs beyond our C++
	// subset, e.g. injected library macros).
	if err := e.parse(live); err != nil {
		return nil, err
	}

	var out []match.Env
	anyMatch := false

envLoop:
	for _, env := range envs {
		inherited := match.Env{}
		missing := false
		for local, qual := range inherits {
			b, ok := env[qual]
			if !ok {
				missing = true
				break
			}
			inherited[local] = b
		}
		if missing {
			out = append(out, env)
			continue
		}

		envMatched := false
		for _, st := range live {
			m := e.matcher(st, rule.Pattern, metas)
			m.Inherited = inherited
			m.MaxMatches = e.opts.MaxMatchesPerRule
			for _, mt := range m.FindAll() {
				// Clamp at the cap, not one past it, and stop before the
				// match transforms anything: the old per-file break kept
				// the outer loops collecting (and editing) across files
				// and environments, silently overshooting the cap.
				if len(out) >= e.opts.MaxEnvs {
					res.EnvsTruncated = true
					break envLoop
				}
				// Inherited bindings participate in plus-line substitution
				// and are re-exported alongside this rule's own bindings.
				merged := mt.Env.Clone()
				for name, b := range inherited {
					if _, bound := merged[name]; !bound {
						merged[name] = b
					}
				}
				localEnv := e.withFresh(rule, merged)
				if rule.Pattern.HasTransform {
					if !e.applyMatch(st, rule.Pattern, &mt, localEnv) {
						continue // overlapping edit: skip this match
					}
					st.dirty = true
				}
				if isCheck {
					res.Findings = append(res.Findings,
						makeFinding(rule, &mt, localEnv, st.file, st.segmentation(), st.src))
				}
				envMatched = true
				anyMatch = true
				res.MatchCount[rule.Name]++
				next := env.Clone()
				for name, b := range localEnv {
					next[rule.Name+"."+name] = b
				}
				out = append(out, next)
			}
		}
		if !envMatched {
			out = append(out, env)
		}
	}
	if anyMatch {
		res.Matched[rule.Name] = true
	}
	// Edits stay pending in the EditSet until the next match rule forces a
	// re-parse or the final render applies them.
	return dedupEnvs(out), nil
}

// gate returns the states whose current text holds every required atom of
// the rule (see index.Index.RuleMayMatch), in order. It returns states
// itself when all pass, so the common single-file run allocates nothing.
func (e *Engine) gate(cr *compiledRule, states []*fileState) []*fileState {
	for i, st := range states {
		if e.compiled.Prefilter.RuleMayMatch(cr.idx, st.hasWord) {
			continue
		}
		live := append([]*fileState(nil), states[:i]...)
		for _, st := range states[i+1:] {
			if e.compiled.Prefilter.RuleMayMatch(cr.idx, st.hasWord) {
				live = append(live, st)
			}
		}
		return live
	}
	return states
}

// withFresh extends a match environment with this rule's fresh identifiers.
func (e *Engine) withFresh(rule *smpl.Rule, env match.Env) match.Env {
	out := env.Clone()
	for _, md := range rule.Metas {
		if md.Kind != cast.MetaFreshIdentKind || len(md.Fresh) == 0 {
			continue
		}
		var sb strings.Builder
		for _, part := range md.Fresh {
			if part.Lit != "" {
				sb.WriteString(part.Lit)
			} else if b, ok := out[part.Ref]; ok {
				sb.WriteString(b.Text)
			}
		}
		name := sb.String()
		if n := e.fresh[name]; n > 0 {
			e.fresh[name] = n + 1
			name = fmt.Sprintf("%s_%d", name, n)
		} else {
			e.fresh[name] = 1
		}
		out[md.Name] = match.NewValueBinding(cast.MetaFreshIdentKind, name)
	}
	return out
}

// refresh applies each edited file's pending edits to its text and retires
// the tree, and drops every memo, that describe the old text. parse
// rebuilds the tree for the rules that can use it.
func refresh(states []*fileState) {
	for _, st := range states {
		if !st.dirty {
			continue
		}
		st.src = st.ed.Apply()
		st.prev, st.prevEd = st.file, st.ed
		st.file, st.ed, st.dirty = nil, nil, false
		st.cfgs = nil // graphs describe the old tree
		st.seg, st.segDone = nil, false
		st.words = nil // presence answers describe the old text
	}
}

// parse re-parses each file whose tree refresh retired, so the rule about
// to match sees the transformed code. Only the top-level declarations the
// edits touched are parsed again; the span's outcome says whether any
// declaration was reused (incremental) or none was (full).
func (e *Engine) parse(states []*fileState) error {
	for _, st := range states {
		if st.file != nil {
			continue
		}
		sp := e.trace.Start(obs.StageParse).File(st.name)
		prior := cparse.Prior{
			File:     st.prev,
			Edited:   st.prevEd.Edited(),
			Inserted: st.prevEd.InsertedBytes(),
			Owned:    st.owned,
		}
		if e.fullReparse {
			prior = cparse.Prior{}
		}
		cf, reused, err := cparse.Reparse(st.name, st.src, e.parseOpts(), prior)
		if reused > 0 {
			sp.Outcome(obs.OutcomeIncremental)
		} else {
			sp.Outcome(obs.OutcomeFull)
		}
		sp.End()
		if e.onReparse != nil {
			e.onReparse(st.name, st.src, cf, reused, err)
		}
		if err != nil {
			return fmt.Errorf("reparsing %s after transformation: %w\nsource:\n%s", st.name, err, st.src)
		}
		st.file, st.ed, st.owned = cf, transform.NewEditSet(cf.Toks), true
		st.prev, st.prevEd = nil, nil
	}
	return nil
}

// dedupEnvs removes exact duplicate environments.
func dedupEnvs(envs []match.Env) []match.Env {
	seen := map[string]bool{}
	var out []match.Env
	for _, env := range envs {
		key := envKey(env)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, env)
	}
	return out
}

func envKey(env match.Env) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(env[k].Norm)
		sb.WriteByte(';')
	}
	return sb.String()
}

// substitute replaces metavariable references in plus-line text with their
// bound values in a single pass, so substituted values are never themselves
// rewritten (e.g. an expression-list value containing variable names that
// collide with other metavariables). A reference is a maximal run of
// identifier characters naming a bound metavariable, so names inside longer
// identifiers are left alone and qualified (inherited "rule.name") bindings
// never match. Text with no reference is returned as is, without allocating.
// An empty expression list takes one adjacent comma with it, as in
// Coccinelle: f(a, el) prints f(a) when el bound no argument.
func substitute(text string, env match.Env) string {
	var sb strings.Builder
	done := 0 // text[:done] is already in sb
	for i := 0; i < len(text); {
		if !index.IdentByte(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && index.IdentByte(text[j]) {
			j++
		}
		if b, ok := env[text[i:j]]; ok {
			lit := text[done:i]
			if b.Kind == cast.MetaExprListKind && b.Text == "" {
				if t := strings.TrimRight(lit, " \t"); strings.HasSuffix(t, ",") {
					lit = t[:len(t)-1]
				} else if rest := strings.TrimLeft(text[j:], " \t"); strings.HasPrefix(rest, ",") {
					j = len(text) - len(strings.TrimLeft(rest[1:], " \t"))
				}
			}
			sb.WriteString(lit)
			sb.WriteString(b.Text)
			done = j
		}
		i = j
	}
	if done == 0 {
		return text
	}
	sb.WriteString(text[done:])
	return sb.String()
}
