package hpc

import (
	"strings"
	"testing"

	sempatch "repro"
)

// checkSrc trips every hpc-checks rule exactly once, plus a clean variant of
// each shape that must stay silent.
const checkSrc = `int work(float *d, int n) {
	cudaMalloc((void **)&d, n);
	if (cudaMalloc((void **)&d, n) != cudaSuccess)
		return 1;
	kern<<<g, b, 128, 0>>>(d, n);
	kern<<<g, b, 128, st>>>(d, n);
	cudaDeviceSynchronize();
	cudaStreamSynchronize(st);
	return 0;
}
void loops(float *a, int n) {
#pragma acc parallel loop
	for (int i = 0; i < n; i++)
		a[i] = 0;
#pragma acc parallel loop copyin(a[0:n])
	for (int i = 0; i < n; i++)
		a[i] = 1;
#pragma acc kernels
	for (int i = 0; i < n; i++)
		a[i] = 2;
}
int leak(int n) {
	char *p = 0;
	p = malloc(n);
	if (n > 4)
		return 1;
	free(p);
	return 0;
}
int noleak(int n) {
	char *p = 0;
	p = malloc(n);
	free(p);
	return 0;
}
`

// checkFindings runs a match-only campaign over one in-memory file and
// collects the findings, asserting the file is never rewritten.
func checkFindings(t *testing.T, c *Campaign, name, src string) []sempatch.Finding {
	t.Helper()
	ca, err := c.Build(sempatch.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var findings []sempatch.Finding
	_, err = ca.ApplyAllFunc([]sempatch.File{{Name: name, Src: src}}, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		if fr.Output != src {
			t.Errorf("%s: check campaign rewrote the file", fr.Name)
		}
		findings = append(findings, fr.Findings()...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func TestChecksCampaignIsMatchOnly(t *testing.T) {
	c := checksCampaign()
	patches, err := c.patches()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range patches {
		if !p.HasChecks() {
			t.Errorf("%s: no check rules", c.members[i].name)
		}
	}
}

func TestChecksCampaignFindings(t *testing.T) {
	c, ok := ByName("hpc-checks")
	if !ok {
		t.Fatal("hpc-checks not registered")
	}
	findings := checkFindings(t, c, "work.cu", checkSrc)
	want := map[string]struct {
		severity string
		line     int
	}{
		"cuda-malloc-unchecked":      {"error", 2},
		"cuda-sync-device":           {"warning", 7},
		"cuda-launch-default-stream": {"warning", 5},
		"acc-parallel-no-clauses":    {"warning", 12},
		"acc-kernels":                {"info", 18},
		"host-alloc-no-free":         {"warning", 24},
	}
	got := map[string]sempatch.Finding{}
	for _, f := range findings {
		if prev, dup := got[f.Check]; dup {
			t.Errorf("check %s fired twice (lines %d and %d)", f.Check, prev.Line, f.Line)
		}
		got[f.Check] = f
	}
	for id, w := range want {
		f, ok := got[id]
		if !ok {
			t.Errorf("check %s did not fire", id)
			continue
		}
		if f.Severity != w.severity {
			t.Errorf("%s: severity %s, want %s", id, f.Severity, w.severity)
		}
		if f.Line != w.line {
			t.Errorf("%s: line %d, want %d", id, f.Line, w.line)
		}
		if f.File != "work.cu" || f.Message == "" || f.FuncHash == "" {
			t.Errorf("%s: incomplete finding %+v", id, f)
		}
	}
	for id := range got {
		if _, ok := want[id]; !ok {
			t.Errorf("unexpected finding %s", id)
		}
	}
}

// The messages interpolate metavariables from the match environment.
func TestChecksCampaignMsgInterpolation(t *testing.T) {
	c, ok := ByName("hpc-checks")
	if !ok {
		t.Fatal("hpc-checks not registered")
	}
	for _, f := range checkFindings(t, c, "work.cu", checkSrc) {
		switch f.Check {
		case "cuda-launch-default-stream":
			if !strings.Contains(f.Message, "kern") || !strings.Contains(f.Message, "128") {
				t.Errorf("launch msg not interpolated: %q", f.Message)
			}
		case "host-alloc-no-free":
			if !strings.Contains(f.Message, "p ") {
				t.Errorf("leak msg not interpolated: %q", f.Message)
			}
		}
	}
}
