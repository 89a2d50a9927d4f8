package hpc

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	sempatch "repro"
)

// applyFixture runs the named campaign over testdata/dir/file and returns
// the output with the file's per-patch outcomes.
func applyFixture(t *testing.T, campaign string, opts sempatch.Options, dir, file string) (string, []sempatch.PatchOutcome) {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", dir, file))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := ByName(campaign)
	if !ok {
		t.Fatalf("no campaign %s", campaign)
	}
	ca, err := c.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	var outcomes []sempatch.PatchOutcome
	_, err = ca.ApplyAllFunc([]sempatch.File{{Name: file, Src: string(src)}}, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		out, outcomes = fr.Output, fr.Patches
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, outcomes
}

// matches totals one member patch's rule matches in a file.
func matches(outcomes []sempatch.PatchOutcome, patch string) int {
	n := 0
	for _, o := range outcomes {
		if o.Patch == patch {
			for _, c := range o.MatchCount {
				n += c
			}
		}
	}
	return n
}

// TestHipifyTranslatesSample: a whole CUDA program — headers, API calls,
// types, enumerators and a four-argument launch — leaves the campaign with
// no CUDA name in it.
func TestHipifyTranslatesSample(t *testing.T) {
	out, outcomes := applyFixture(t, "hipify", sempatch.Options{}, "hipify", "sample.cu")
	for _, w := range []string{
		"#include <hip/hip_runtime.h>",
		"#include <rocrand/rocrand_kernel.h>",
		"hipError_t err = hipMalloc(&d_a, n * sizeof(double));",
		"if (err != hipSuccess) return 1;",
		"hipStream_t stream;",
		"hipStreamCreate(&stream);",
		"hipMemcpyHostToDevice",
		"hipLaunchKernelGGL(scale, grid, block, 0, stream, n, d_a, 2.0);",
		"hipStreamSynchronize(stream);",
		"hipFree(d_a);",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("missing %q in:\n%s", w, out)
		}
	}
	if strings.Contains(out, "cuda") {
		t.Errorf("cuda remnants:\n%s", out)
	}
	if l, h := matches(outcomes, "hipify-launch.cocci"), matches(outcomes, "hipify-headers.cocci"); l != 1 || h != 2 {
		t.Errorf("launches=%d headers=%d, want 1 and 2", l, h)
	}
	if f := matches(outcomes, "hipify-funcs.cocci"); f < 4 {
		t.Errorf("functions renamed=%d", f)
	}
}

// TestHipifyTranslatesStreamCapture runs a stream-capture snippet through
// the hipify campaign end to end.
func TestHipifyTranslatesStreamCapture(t *testing.T) {
	out, _ := applyFixture(t, "hipify", sempatch.Options{}, "hipify", "capture.cu")
	for _, want := range []string{
		"hipStream_t s",
		"hipStreamCaptureStatus st = hipStreamCaptureStatusNone",
		"hipStreamBeginCapture(s, hipStreamCaptureModeGlobal)",
		"hipStreamIsCapturing(s, &st)",
		"hipGraph_t g",
		"hipStreamEndCapture(s, &g)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "cuda") {
		t.Errorf("untranslated CUDA names remain:\n%s", out)
	}
}

// TestAcc2ompTranslatesSaxpy: host mode turns a parallel loop into a
// parallel for, drops its data clauses with one pragma-clause advisory
// each, and leaves every other line as it was.
func TestAcc2ompTranslatesSaxpy(t *testing.T) {
	out, outcomes := applyFixture(t, "acc2omp", sempatch.Options{Verify: true}, "acc2omp", "saxpy.c")
	if !strings.Contains(out, "#pragma omp parallel for\n") {
		t.Errorf("translation wrong:\n%s", out)
	}
	if strings.Contains(out, "acc") || strings.Contains(out, "map(") {
		t.Errorf("acc remnants or device clauses:\n%s", out)
	}
	if !strings.Contains(out, "#include <stdio.h>") || !strings.Contains(out, "y[i] = a * x[i] + y[i];") {
		t.Errorf("unrelated lines changed:\n%s", out)
	}
	var clauses int
	for _, o := range outcomes {
		if o.Demoted {
			t.Errorf("%s demoted", o.Patch)
		}
		for _, w := range o.Warnings {
			if w.Code != "pragma-clause" || w.Unsafe {
				t.Errorf("unexpected warning %+v", w)
			}
			clauses++
		}
	}
	if clauses != 2 {
		t.Errorf("want 2 pragma-clause advisories (copy, copyin), got %d", clauses)
	}
}

// TestAcc2ompPreservesIndent: a translated directive keeps the indentation
// of the directive it replaces.
func TestAcc2ompPreservesIndent(t *testing.T) {
	out, _ := applyFixture(t, "acc2omp", sempatch.Options{}, "acc2omp", "indent.c")
	if !strings.Contains(out, "\t#pragma omp for\n") {
		t.Errorf("indentation lost:\n%s", out)
	}
}
