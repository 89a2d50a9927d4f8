package hpc

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sempatch "repro"
	"repro/internal/accomp"
	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/hipify"
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
		if _, err := c.Patches(); err != nil {
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
		if !strings.Contains(funcs, "- "+name+"\n+ "+hipify.Functions[name]) {
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

// TestHipifyParity pins the campaign byte-identical to the legacy AST
// walker across the fixture corpus shapes (the acceptance criterion).
func TestHipifyParity(t *testing.T) {
	c, _ := ByName("hipify")
	cases := []struct {
		shape string
		gen   func(codegen.Config) string
		cfg   codegen.Config
	}{
		{"cuda", codegen.CUDA, codegen.Config{Funcs: 2, StmtsPerFunc: 1, Seed: 1}},
		{"cuda", codegen.CUDA, codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: 20250326}},
		{"cuda", codegen.CUDA, codegen.Config{Funcs: 5, StmtsPerFunc: 3, Seed: 7}},
		{"curand", codegen.Curand, codegen.Config{Funcs: 2, StmtsPerFunc: 2, Seed: 1}},
		{"curand", codegen.Curand, codegen.Config{Funcs: 4, StmtsPerFunc: 1, Seed: 42}},
	}
	for _, tc := range cases {
		src := tc.gen(tc.cfg)
		name := tc.shape + ".cu"
		legacy, rep, err := hipify.Translate(name, src)
		if err != nil {
			t.Fatalf("legacy %s: %v", tc.shape, err)
		}
		if rep.Total() == 0 {
			t.Fatalf("%s: fixture exercises nothing", tc.shape)
		}
		got, _ := applyOne(t, c, sempatch.Options{}, name, src)
		if got != legacy {
			t.Errorf("%s (funcs=%d stmts=%d seed=%d): campaign diverges from legacy:\n--- legacy\n%s\n--- campaign\n%s",
				tc.shape, tc.cfg.Funcs, tc.cfg.StmtsPerFunc, tc.cfg.Seed, legacy, got)
		}
	}
}

// TestAcc2ompParity pins both acc2omp campaigns byte-identical to the
// legacy line walker on the generated OpenACC corpus.
func TestAcc2ompParity(t *testing.T) {
	for _, offload := range []bool{false, true} {
		name := "acc2omp"
		mode := accomp.Host
		if offload {
			name, mode = "acc2omp-offload", accomp.Offload
		}
		c, _ := ByName(name)
		for _, cfg := range []codegen.Config{
			{Funcs: 2, StmtsPerFunc: 1, Seed: 1},
			{Funcs: 3, StmtsPerFunc: 1, Seed: 20250326},
			{Funcs: 6, StmtsPerFunc: 2, Seed: 99},
		} {
			src := codegen.OpenACC(cfg)
			legacy, _, err := accomp.TranslateSource(src, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := applyOne(t, c, sempatch.Options{}, "acc.c", src)
			if got != legacy {
				t.Errorf("%s (funcs=%d seed=%d): campaign diverges from legacy:\n--- legacy\n%s\n--- campaign\n%s",
					name, cfg.Funcs, cfg.Seed, legacy, got)
			}
		}
	}
}

// TestHipifyTraceShowsRuleGate checks that a trace says why a rule did
// nothing: over one CUDA file most of hipify's one-identifier rename rules
// find their identifier absent, and their match spans carry the skip
// outcome, while the rules that do fire still report their matches.
func TestHipifyTraceShowsRuleGate(t *testing.T) {
	c, _ := ByName("hipify")
	tr := sempatch.NewTracer()
	src := codegen.CUDA(codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: 1})
	applyOne(t, c, sempatch.Options{Tracer: tr}, "app.cu", src)
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
	skipped, fired := 0, 0
	for _, ev := range trace.TraceEvents {
		if ev.Name != "match" {
			continue
		}
		if ev.Args.Outcome == "skip" {
			skipped++
		}
		if ev.Args.Matches > 0 {
			fired++
		}
	}
	if skipped == 0 || fired == 0 {
		t.Errorf("match spans: %d with the skip outcome, %d with matches; want both > 0", skipped, fired)
	}
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
