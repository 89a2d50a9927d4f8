package hpc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	sempatch "repro"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// applyOne runs a campaign over one in-memory file and returns the output.
func applyOne(t *testing.T, c *Campaign, opts sempatch.Options, name, src string) (string, sempatch.CampaignStats) {
	t.Helper()
	ca, err := c.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	out := src
	st, err := ca.ApplyAllFunc([]sempatch.File{{Name: name, Src: src}}, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		out = fr.Output
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func TestRegistry(t *testing.T) {
	want := []string{"acc2omp", "acc2omp-offload", "hipify", "hpc-checks"}
	got := Campaigns()
	if len(got) != len(want) {
		t.Fatalf("want %d campaigns, got %d", len(want), len(got))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Errorf("campaign %d: want %s, got %s", i, name, got[i].Name)
		}
		c, ok := ByName(name)
		if !ok || c.Name != name {
			t.Errorf("ByName(%s) failed", name)
		}
		if c.Title == "" || c.Version == "" {
			t.Errorf("%s: empty title or version", name)
		}
		if len(c.PatchNames()) == 0 {
			t.Errorf("%s: no member patches", name)
		}
		if _, err := c.patches(); err != nil {
			t.Errorf("%s: generated patch does not parse: %v", name, err)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) should miss")
	}
}

// The generated hipify patches embed the dictionaries, so the member text
// must reshape when a dictionary entry would change — spot-check that the
// stream/event additions are present.
func TestHipifyPatchTextTracksDictionary(t *testing.T) {
	c := hipifyCampaign()
	funcs := c.PatchText("hipify-funcs.cocci")
	for _, name := range []string{"cudaStreamCreateWithPriority", "cudaStreamBeginCapture", "cudaEventRecordWithFlags"} {
		if !strings.Contains(funcs, "- "+name+"\n+ "+Functions[name]) {
			t.Errorf("funcs patch missing dictionary entry %s", name)
		}
	}
	if strings.Contains(funcs, "- __syncthreads") {
		t.Error("identity dictionary entries must not generate rules")
	}
	enums := c.PatchText("hipify-enums.cocci")
	if !strings.Contains(enums, "- cudaStreamCaptureModeGlobal\n+ hipStreamCaptureModeGlobal") {
		t.Error("enums patch missing stream-capture enumerators")
	}
}

// TestHipifyParity pins the campaign byte for byte to testdata/hipify,
// whose expected outputs were written by the AST walker the campaign
// replaced: the generated corpus shapes, the CLI fixture, and every CUDA
// type position and launch form the walker covered.
func TestHipifyParity(t *testing.T) {
	c, _ := ByName("hipify")
	checkGoldens(t, c, "hipify", ".golden")
}

// TestAcc2ompParity pins both acc2omp campaigns to testdata/acc2omp, whose
// expected outputs were written by the line walker the campaigns replaced.
func TestAcc2ompParity(t *testing.T) {
	for _, mode := range []string{"host", "offload"} {
		name := "acc2omp"
		if mode == "offload" {
			name += "-offload"
		}
		c, _ := ByName(name)
		checkGoldens(t, c, "acc2omp", "."+mode+".golden")
	}
}

// checkGoldens runs the campaign over every input of testdata/dir that has
// an expected output, the file named input+suffix.
func checkGoldens(t *testing.T, c *Campaign, dir, suffix string) {
	t.Helper()
	wants, err := filepath.Glob(filepath.Join("testdata", dir, "*"+suffix))
	if err != nil || len(wants) == 0 {
		t.Fatalf("no %s goldens in testdata/%s: %v", suffix, dir, err)
	}
	for _, want := range wants {
		in := strings.TrimSuffix(want, suffix)
		src, err := os.ReadFile(in)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(exp) == string(src) {
			t.Errorf("%s: fixture exercises nothing", in)
		}
		if got, _ := applyOne(t, c, sempatch.Options{}, filepath.Base(in), string(src)); got != string(exp) {
			t.Errorf("%s: campaign %s diverges from %s:\n%s", in, c.Name, want, got)
		}
	}
}

// TestHipifyLeavesCollisionsAlone: identifiers that collide with API names
// but are not API uses — a local variable, a string literal, a comment —
// stay untouched, while the real call is renamed.
func TestHipifyLeavesCollisionsAlone(t *testing.T) {
	c, _ := ByName("hipify")
	src := `void f(void) {
	int cudaMalloc = 3;            // a (terrible) local variable name
	const char *msg = "call cudaMalloc here";
	use(cudaMalloc, msg);
}
`
	if out, _ := applyOne(t, c, sempatch.Options{}, "t.cu", src); out != src {
		t.Errorf("collisions rewritten:\n%s", out)
	}
}

// TestHipifyLaunchPadsDefaults: HIP requires all four launch parameters, so
// the shorter triple-chevron forms get 0 for the missing shared-memory size
// and stream; a launch without kernel arguments leaves no trailing comma.
func TestHipifyLaunchPadsDefaults(t *testing.T) {
	c, _ := ByName("hipify")
	src := "void f(void){ k<<<g, b>>>(x); k<<<g, b, m>>>(x, y); k<<<g, b, m, s>>>(x); k<<<g, b>>>(); }"
	want := "void f(void){ hipLaunchKernelGGL(k, g, b, 0, 0, x); hipLaunchKernelGGL(k, g, b, m, 0, x, y); " +
		"hipLaunchKernelGGL(k, g, b, m, s, x); hipLaunchKernelGGL(k, g, b, 0, 0); }"
	if out, _ := applyOne(t, c, sempatch.Options{}, "t.cu", src); out != want {
		t.Errorf("got  %s\nwant %s", out, want)
	}
}

// TestHipifyLaunchIsFunctionLocal: the launch member stays one rule, so it
// keeps riding the per-function result cache.
func TestHipifyLaunchIsFunctionLocal(t *testing.T) {
	c, _ := ByName("hipify")
	p, err := smpl.ParsePatch("hipify-launch.cocci", c.PatchText("hipify-launch.cocci"))
	if err != nil {
		t.Fatal(err)
	}
	if !core.FunctionLocal(core.Compile(p), core.Options{}) {
		t.Error("hipify-launch.cocci is not function-local")
	}
}

// Property: the campaign is idempotent — running it over its own output
// changes nothing.
func TestQuickHipifyIdempotent(t *testing.T) {
	c, _ := ByName("hipify")
	snippets := []string{
		"void f(void){ cudaMalloc(&p, n); }",
		"void f(void){ cudaStream_t s; cudaStreamCreate(&s); }",
		"void f(void){ k<<<g,b>>>(x); }",
		"void f(void){ if (e != cudaSuccess) bail(); }",
		"#include <cuda.h>\nint x;",
	}
	prop := func(pick uint8) bool {
		src := snippets[int(pick)%len(snippets)]
		once, _ := applyOne(t, c, sempatch.Options{}, "t.cu", src)
		twice, _ := applyOne(t, c, sempatch.Options{}, "t.cu", once)
		return once == twice
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: translation never changes the number of lines (the paper's
// reviewability argument: HIP output diffs line-for-line against CUDA).
func TestQuickHipifyLinesPreserved(t *testing.T) {
	c, _ := ByName("hipify")
	prop := func(seed uint8) bool {
		src := codegen.CUDA(codegen.Config{Funcs: 2, StmtsPerFunc: 2, Seed: int64(seed)})
		out, _ := applyOne(t, c, sempatch.Options{}, "t.cu", src)
		return out != src && strings.Count(out, "\n") == strings.Count(src, "\n")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// TestHipifyTraceShowsRuleGate checks that a trace says why a rule did
// nothing: over one CUDA file most of hipify's one-identifier rename rules
// find their identifier absent, and their match spans carry the skip
// outcome, while the rules that do fire still report their matches. The
// typedef rules are gated on their type name like the rest: over a file
// without CUDA types, with the file-level prefilter off, each of them skips.
func TestHipifyTraceShowsRuleGate(t *testing.T) {
	c, _ := ByName("hipify")
	src := codegen.CUDA(codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: 1})
	skipped, fired, _ := traceMatches(t, c, sempatch.Options{}, src)
	if skipped == 0 || fired == 0 {
		t.Errorf("match spans: %d with the skip outcome, %d with matches; want both > 0", skipped, fired)
	}

	types := &Campaign{Name: "types", CPlusPlus: true, CUDA: true,
		members: []member{{name: "hipify-types.cocci", text: c.PatchText("hipify-types.cocci")}}}
	skipped, _, total := traceMatches(t, types, sempatch.Options{NoPrefilter: true}, "int work(float *d, int n) {\n\tcudaMalloc((void **)&d, n);\n\treturn 0;\n}\n")
	if want := len(sortedKeys(Types)); total != want || skipped != want {
		t.Errorf("type rules over a file without CUDA types: %d match spans, %d skipped; want %d of each", total, skipped, want)
	}
}

// traceMatches runs the campaign over src under a tracer and counts the
// trace's match spans: those with the skip outcome, those with matches, and
// all of them.
func traceMatches(t *testing.T, c *Campaign, opts sempatch.Options, src string) (skipped, fired, total int) {
	t.Helper()
	tr := sempatch.NewTracer()
	opts.Tracer = tr
	applyOne(t, c, opts, "app.cu", src)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Outcome string `json:"outcome"`
				Matches int    `json:"matches"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	for _, ev := range trace.TraceEvents {
		if ev.Name != "match" {
			continue
		}
		total++
		if ev.Args.Outcome == "skip" {
			skipped++
		}
		if ev.Args.Matches > 0 {
			fired++
		}
	}
	return skipped, fired, total
}

// TestHipifyVerifyParsesOnce: --verify shares its trees with the hipify
// campaign, so it costs at most one parse more than the unverified sweep —
// of the last changing member's output, when no later member parses it
// anyway.
func TestHipifyVerifyParsesOnce(t *testing.T) {
	c, _ := ByName("hipify")
	cases := []struct {
		name, src string
		gap       int64
	}{
		// The launch rewrite, the last member, changes the file.
		{"generated", codegen.CUDA(codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: 1}), 1},
		// Only hipify-funcs changes the file, and the launch member parses
		// its output in either mode.
		{"funcs only", "int work(float *d, int n) {\n\tcudaMalloc((void **)&d, n);\n\tcudaDeviceSynchronize();\n\treturn 0;\n}\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count := func(opts sempatch.Options) (string, sempatch.CampaignStats, int64) {
				before := cparse.Parses()
				out, st := applyOne(t, c, opts, "app.cu", tc.src)
				return out, st, cparse.Parses() - before
			}
			out, st, n := count(sempatch.Options{})
			outV, _, nv := count(sempatch.Options{Verify: true})
			if outV != out {
				t.Fatalf("verified output differs from unverified")
			}
			last := st.PerPatch[len(st.PerPatch)-1]
			if lastChanged := last.Changed > 0; lastChanged != (tc.gap == 1) {
				t.Fatalf("%s changed the file: %v; the case expects %v", last.Patch, lastChanged, tc.gap == 1)
			}
			t.Logf("parses: %d unverified, %d with --verify", n, nv)
			if nv-n != tc.gap {
				t.Errorf("parses: %d unverified, %d with --verify; want a gap of %d", n, nv, tc.gap)
			}
		})
	}
}

// TestHipifyWarmSweep is the acceptance scenario: a repeat sweep over an
// unchanged corpus replays entirely from the result cache (zero parses),
// and after editing one function in one file, the function-granular cache
// replays the untouched segments (function-cache hits > 0).
func TestHipifyWarmSweep(t *testing.T) {
	c, _ := ByName("hipify")
	dir := t.TempDir()
	var paths []string
	for i, seed := range []int64{1, 2, 3} {
		p := filepath.Join(dir, "app"+string(rune('a'+i))+".cu")
		src := codegen.CUDA(codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: seed})
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	opts := sempatch.Options{CacheDir: filepath.Join(dir, "cache")}
	sweep := func() sempatch.CampaignStats {
		ca, err := c.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := ca.ApplyAllPathsFunc(paths, func(fr sempatch.CampaignFileResult) error {
			if fr.Err != nil {
				t.Fatalf("%s: %v", fr.Name, fr.Err)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	sweep() // cold: prime the cache

	before := cparse.Parses()
	st := sweep() // warm repeat: identical corpus
	if parsed := cparse.Parses() - before; parsed != 0 {
		t.Errorf("warm repeat sweep parsed %d files, want 0", parsed)
	}
	for _, ps := range st.PerPatch {
		if ps.Cached != len(paths) {
			t.Errorf("warm sweep: patch %s replayed %d/%d files from cache", ps.Patch, ps.Cached, len(paths))
		}
	}

	// Edit one function body in one file: the launch member's per-function
	// cache replays the untouched segments.
	b, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(b), "int i = blockIdx.x", "int i = 1 + blockIdx.x", 1)
	if edited == string(b) {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(paths[0], []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	st = sweep()
	hits := 0
	for _, ps := range st.PerPatch {
		hits += ps.FuncsCached
	}
	if hits == 0 {
		t.Errorf("edited-file sweep: want function-cache hits > 0, got stats %+v", st.PerPatch)
	}
}

// TestHipifyVerifyDemotesCapture seeds the capture-avoidance hazard: a
// function that already declares a local named hipMalloc and calls
// cudaMalloc. The rename would bind the introduced reference to the local,
// so --verify must demote the edit to a warning for that file.
func TestHipifyVerifyDemotesCapture(t *testing.T) {
	c, _ := ByName("hipify")
	src := `int f(int n) {
	int hipMalloc = 0;
	cudaMalloc(&hipMalloc, n);
	return hipMalloc;
}
`
	out, st := applyOne(t, c, sempatch.Options{Verify: true}, "seed.cu", src)
	if out != src {
		t.Errorf("unsafe edit was not demoted:\n%s", out)
	}
	demoted, warned := 0, 0
	for _, ps := range st.PerPatch {
		demoted += ps.Demoted
		warned += ps.Warnings
	}
	if demoted == 0 || warned == 0 {
		t.Errorf("want demotion with warnings, got %+v", st.PerPatch)
	}

	// The same source without the colliding local transforms normally.
	safe := strings.ReplaceAll(src, "hipMalloc", "buf")
	out, st = applyOne(t, c, sempatch.Options{Verify: true}, "safe.cu", safe)
	if !strings.Contains(out, "hipMalloc(&buf, n)") {
		t.Errorf("safe edit should go through:\n%s", out)
	}
	for _, ps := range st.PerPatch {
		if ps.Demoted != 0 {
			t.Errorf("safe edit demoted: %+v", ps)
		}
	}
}

// TestHipifyVerifyDemotesTypeCapture: a renamed type base inside a body
// that declares a local of the new name is captured by that local, so
// --verify demotes it.
func TestHipifyVerifyDemotesTypeCapture(t *testing.T) {
	src := "int f(int n) { int hipStream_t = n; cudaStream_t s; return hipStream_t; }\n"
	if out, demoted := verifyOne(t, "seed.cu", src); out != src || !demoted["capture"] {
		t.Errorf("want the type rename demoted as capture, got %v:\n%s", demoted, out)
	}
}

// TestHipifyVerifyKeepsSignatureTypeRename: parameter and return types lie
// outside the body's scope, so renaming them in a function that declares a
// local of the new name is not a capture.
func TestHipifyVerifyKeepsSignatureTypeRename(t *testing.T) {
	src := "cudaStream_t f(cudaStream_t s) { int hipStream_t = 0; use(hipStream_t); return s; }\n"
	want := "hipStream_t f(hipStream_t s) { int hipStream_t = 0; use(hipStream_t); return s; }\n"
	if out, demoted := verifyOne(t, "sig.cu", src); out != want || len(demoted) != 0 {
		t.Errorf("demoted %v; got  %swant %s", demoted, out, want)
	}
}

// verifyOne runs the hipify campaign with --verify over one file and
// returns the output and the codes of the warnings behind each demotion.
func verifyOne(t *testing.T, name, src string) (string, map[string]bool) {
	t.Helper()
	c, _ := ByName("hipify")
	ca, err := c.Build(sempatch.Options{Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	out, demoted := src, map[string]bool{}
	_, err = ca.ApplyAllFunc([]sempatch.File{{Name: name, Src: src}}, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		out = fr.Output
		for _, o := range fr.Patches {
			for _, w := range o.Warnings {
				if o.Demoted && w.Unsafe {
					demoted[w.Code] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, demoted
}
