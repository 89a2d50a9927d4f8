package sempatch

// Public-API tests for the persistent corpus index and campaign mode: the
// cache must be invisible in outputs (cold == warm == disabled, byte for
// byte), campaigns must parse each unchanged file exactly once however many
// patches they apply, and warm runs must not parse at all.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/cparse"
)

// parityCorpus is the realistic whole-codebase shape: most files cannot
// match, a few can.
func parityCorpus(n int) []File {
	files := make([]File, n)
	for i := range files {
		src := codegen.Mixed(codegen.Config{Funcs: 4 + i%3, StmtsPerFunc: 2, Seed: int64(i + 1)})
		if i%5 == 0 {
			src += fmt.Sprintf("\nvoid migrate_%d(int n)\n{\n\tlegacy_halo_exchange(n, %d);\n}\n", i, i)
		}
		files[i] = File{Name: fmt.Sprintf("src%03d.c", i), Src: src}
	}
	return files
}

const parityPatch = `@r@
expression list el;
@@
- legacy_halo_exchange(el)
+ halo_exchange_v2(el)
`

// TestCacheParity pins the cache's one non-negotiable property: outputs are
// byte-identical with the cache cold, warm, and disabled, for every file —
// diffs, outputs, and match counts alike.
func TestCacheParity(t *testing.T) {
	files := parityCorpus(30)
	patch, err := ParsePatch("parity.cocci", parityPatch)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "cache")

	collect := func(opts Options) ([]CampaignFileResult, PatchStats) {
		var out []CampaignFileResult
		st, err := NewCampaign([]*Patch{patch}, opts).ApplyAllFunc(files, func(fr CampaignFileResult) error {
			if fr.Err != nil {
				return fr.Err
			}
			out = append(out, fr)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out, st.PerPatch[0]
	}

	disabled, _ := collect(Options{Workers: 4})
	cold, coldSt := collect(Options{Workers: 4, CacheDir: dir})
	warm, warmSt := collect(Options{Workers: 4, CacheDir: dir})

	if coldSt.Cached != 0 {
		t.Errorf("cold run reported %d cached", coldSt.Cached)
	}
	if warmSt.Cached != len(files) {
		t.Errorf("warm run cached %d of %d files", warmSt.Cached, len(files))
	}
	for i := range files {
		for _, mode := range []struct {
			name string
			fr   CampaignFileResult
		}{{"cold", cold[i]}, {"warm", warm[i]}} {
			if mode.fr.Output != disabled[i].Output {
				t.Errorf("%s %s: output differs from cache-disabled run", mode.name, files[i].Name)
			}
			if mode.fr.Diff != disabled[i].Diff {
				t.Errorf("%s %s: diff differs from cache-disabled run", mode.name, files[i].Name)
			}
			if fmt.Sprint(mode.fr.Patches[0].MatchCount) != fmt.Sprint(disabled[i].Patches[0].MatchCount) {
				t.Errorf("%s %s: match counts differ", mode.name, files[i].Name)
			}
		}
	}
	// A warm run touches the parser not at all.
	before := cparse.Parses()
	if _, err := NewCampaign([]*Patch{patch}, Options{Workers: 4, CacheDir: dir}).ApplyAllFunc(files, nil); err != nil {
		t.Fatal(err)
	}
	if got := cparse.Parses() - before; got != 0 {
		t.Errorf("warm cached run parsed %d files, want 0", got)
	}
}

// TestCampaignParsesOnce asserts the campaign's headline contract via the
// parser's instrumentation: N patches over an unchanged corpus parse each
// file exactly once, where N sequential single-patch runs would parse it N
// times (minus prefilter skips).
func TestCampaignParsesOnce(t *testing.T) {
	// Context-only probes: every patch matches every file (a function
	// definition always exists) and none transforms, so no re-parses are
	// ever justified.
	probe := "@probe%d@\ntype T;\nidentifier f;\nparameter list PL;\nstatement list SL;\n@@\nT f (PL) { SL }\n"
	var patches []*Patch
	for i := 0; i < 4; i++ {
		p, err := ParsePatch(fmt.Sprintf("probe%d.cocci", i), fmt.Sprintf(probe, i))
		if err != nil {
			t.Fatal(err)
		}
		patches = append(patches, p)
	}
	files := parityCorpus(20)

	before := cparse.Parses()
	st, err := NewCampaign(patches, Options{Workers: 4}).ApplyAllFunc(files, func(fr CampaignFileResult) error {
		return fr.Err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cparse.Parses() - before; got != int64(len(files)) {
		t.Errorf("campaign over %d patches parsed %d times for %d files, want one parse per file",
			len(patches), got, len(files))
	}
	for i, ps := range st.PerPatch {
		if ps.Matched != len(files) {
			t.Errorf("probe patch %d matched %d of %d files", i, ps.Matched, len(files))
		}
	}
}

// TestCampaignFailureDoesNotPoisonCache pins the result cache's error
// discipline inside a campaign: when a mid-campaign member fails on one
// file, (1) the members that already succeeded on that file keep sound
// cache entries, (2) the failure itself is never cached — a warm re-run
// fails again instead of replaying a bogus success — and (3) the members
// that never got to run leave no entry at all.
func TestCampaignFailureDoesNotPoisonCache(t *testing.T) {
	good, err := ParsePatch("good.cocci", "@g@\nexpression list el;\n@@\n- old_api(el)\n+ new_api(el)\n")
	if err != nil {
		t.Fatal(err)
	}
	// boom matches trigger_boom(e) and then runs a script whose body is not
	// executable by the restricted interpreter, so it errors exactly on the
	// files where the rule matched and succeeds (skips) everywhere else.
	boom, err := ParsePatch("boom.cocci",
		"@m@\nexpression e;\n@@\ntrigger_boom(e)\n\n@script:python s@\ne << m.e;\nout;\n@@\ncoccinelle.out = nonsense_call(e);\n")
	if err != nil {
		t.Fatal(err)
	}
	tail, err := ParsePatch("tail.cocci", "@t@\nexpression list el;\n@@\n- tail_api(el)\n+ tail_api_v2(el)\n")
	if err != nil {
		t.Fatal(err)
	}
	files := []File{
		{Name: "bad.c", Src: "void b(void)\n{\n\told_api(1);\n\ttrigger_boom(2);\n\ttail_api(3);\n}\n"},
		{Name: "ok.c", Src: "void o(void)\n{\n\told_api(4);\n\ttail_api(5);\n}\n"},
	}
	dir := filepath.Join(t.TempDir(), "cache")
	members := []*Patch{good, boom, tail}

	runCampaign := func() map[string]CampaignFileResult {
		out := map[string]CampaignFileResult{}
		_, err := NewCampaign(members, Options{CacheDir: dir}).ApplyAllFunc(files, func(fr CampaignFileResult) error {
			out[fr.Name] = fr
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := runCampaign()
	if cold["bad.c"].Err == nil {
		t.Fatal("the boom member did not fail on bad.c")
	}
	if len(cold["bad.c"].Patches) != 1 || !cold["bad.c"].Patches[0].Changed {
		t.Fatalf("bad.c outcomes before the failure: %+v", cold["bad.c"].Patches)
	}
	if cold["ok.c"].Err != nil || !strings.Contains(cold["ok.c"].Output, "tail_api_v2(5)") {
		t.Fatalf("ok.c must complete the whole campaign: %+v", cold["ok.c"])
	}

	// (2) A warm re-run hits the same error — the failure was not cached as
	// a success — while the member that did succeed on bad.c replays.
	warm := runCampaign()
	if warm["bad.c"].Err == nil {
		t.Error("warm re-run replayed a failed member as a success")
	}
	if len(warm["bad.c"].Patches) != 1 || !warm["bad.c"].Patches[0].Cached {
		t.Errorf("good member's sound outcome on bad.c did not replay: %+v", warm["bad.c"].Patches)
	}

	// (1) The good member's entry for bad.c is byte-correct: a single-patch
	// batch run over the same cache replays it, matching a cache-disabled
	// run exactly.
	applyOne := func(p *Patch, opts Options, f File) CampaignFileResult {
		var out CampaignFileResult
		if _, err := NewCampaign([]*Patch{p}, opts).ApplyAllFunc([]File{f}, func(fr CampaignFileResult) error {
			out = fr
			return fr.Err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	cached := applyOne(good, Options{CacheDir: dir}, files[0])
	plain := applyOne(good, Options{}, files[0])
	if !cached.Patches[0].Cached {
		t.Error("good member's entry for bad.c missing from the cache")
	}
	if cached.Output != plain.Output || cached.Diff != plain.Diff {
		t.Error("good member's cached outcome for bad.c diverges from a fresh run")
	}

	// (3) The tail member never ran on bad.c, so the text it would have
	// seen (the good member's output) must have no entry: a first run over
	// it derives, not replays.
	intermediate := File{Name: "bad.c", Src: plain.Output}
	if fr := applyOne(tail, Options{CacheDir: dir}, intermediate); fr.Patches[0].Cached {
		t.Error("tail member has a cache entry for a file it never processed")
	}
}

// A campaign whose members transform re-parses only what changed: the
// changed file is parsed once for the sweep plus once after the rewrite
// (the engine re-parses edited text before the next member matches it).
func TestCampaignSequencing(t *testing.T) {
	first, err := ParsePatch("a.cocci", "@a@\nexpression list el;\n@@\n- step_one(el)\n+ step_two(el)\n")
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParsePatch("b.cocci", "@b@\nexpression list el;\n@@\n- step_two(el)\n+ step_three(el)\n")
	if err != nil {
		t.Fatal(err)
	}
	files := []File{
		{Name: "x.c", Src: "void x(void)\n{\n\tstep_one(1);\n}\n"},
		{Name: "y.c", Src: "void y(void)\n{\n\tidle();\n}\n"},
	}
	var got []CampaignFileResult
	for fr := range NewCampaign([]*Patch{first, second}, Options{}).ApplyAll(files) {
		if fr.Err != nil {
			t.Fatal(fr.Err)
		}
		got = append(got, fr)
	}
	if !strings.Contains(got[0].Output, "step_three(1)") {
		t.Errorf("second patch did not see the first's output:\n%s", got[0].Output)
	}
	if !got[0].Patches[0].Changed || !got[0].Patches[1].Changed {
		t.Errorf("per-patch outcomes wrong: %+v", got[0].Patches)
	}
	if got[1].Changed() || !got[1].Patches[0].Skipped || !got[1].Patches[1].Skipped {
		t.Errorf("non-matching file should be skipped by both prefilters: %+v", got[1].Patches)
	}
}
