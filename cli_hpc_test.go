package sempatch

// End-to-end tests for the HPC campaign CLIs (gocci-hipify, gocci-acc2omp)
// and gocci --list-campaigns: the tools must write the expected outputs in
// internal/hpc/testdata byte for byte, warm cache runs must report zero
// parses, and --verify must demote unsafe edits with visible warnings.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// hpcFixture reads one input of the HPC campaigns' golden corpus and its
// expected output under the given suffix.
func hpcFixture(t *testing.T, name, suffix string) (src, want string) {
	t.Helper()
	path := filepath.Join("internal", "hpc", "testdata", name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(path + suffix)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), string(w)
}

func TestCLIListCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	out, err := exec.Command(bin, "--list-campaigns").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci --list-campaigns: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"hipify", "acc2omp", "acc2omp-offload", "hipify-launch.cocci"} {
		if !strings.Contains(s, want) {
			t.Errorf("listing missing %q:\n%s", want, s)
		}
	}
}

// TestCLIHipifyCampaignParity pins the CLI's in-place rewrite to the
// campaign's expected output, and checks the diff mode prints the change.
func TestCLIHipifyCampaignParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-hipify")
	src, want := hpcFixture(t, "hipify/cli.cu", ".golden")
	file := filepath.Join(t.TempDir(), "app.cu")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diff, err := exec.Command(bin, file).Output()
	if err != nil {
		t.Fatalf("gocci-hipify: %v", err)
	}
	if !strings.Contains(string(diff), "+\thipError_t err = hipMalloc") {
		t.Fatalf("diff lacks the translation:\n%s", diff)
	}

	// --in-place goes through the atomic writer and preserves permissions.
	if err := os.Chmod(file, 0o640); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "--in-place", file).CombinedOutput(); err != nil {
		t.Fatalf("gocci-hipify --in-place: %v\n%s", err, out)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Errorf("in-place result differs from the expected output:\n%s", b)
	}
	if info, _ := os.Stat(file); info.Mode().Perm() != 0o640 {
		t.Errorf("permissions not preserved: %v", info.Mode().Perm())
	}
}

func TestCLIAcc2ompCampaignParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-acc2omp")
	for _, mode := range []string{"host", "offload"} {
		src, want := hpcFixture(t, "acc2omp/cli.c", "."+mode+".golden")
		file := filepath.Join(t.TempDir(), "saxpy.c")
		if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"--in-place", file}
		if mode == "offload" {
			args = append([]string{"--offload"}, args...)
		}
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("gocci-acc2omp %v: %v\n%s", args, err, out)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != want {
			t.Errorf("%s: result differs from the expected output:\n%s", mode, b)
		}
	}
}

// TestCLIHipifyWarmCacheStats runs a recursive sweep twice with a cache
// dir: the repeat must report parsed: 0 with every member fully cached.
func TestCLIHipifyWarmCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-hipify")
	src, _ := hpcFixture(t, "hipify/cli.cu", ".golden")
	tree := t.TempDir()
	for _, name := range []string{"a.cu", "b.cu"} {
		if err := os.WriteFile(filepath.Join(tree, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	run := func() string {
		cmd := exec.Command(bin, "-r", "--stats", "--cache-dir", cacheDir, tree)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("gocci-hipify -r: %v\n%s", err, out)
		}
		return string(out)
	}
	cold := run()
	if !strings.Contains(cold, "campaign hipify") || strings.Contains(cold, "parsed: 0") {
		t.Fatalf("cold run stats unexpected:\n%s", cold)
	}
	warm := run()
	if !strings.Contains(warm, "parsed: 0") {
		t.Errorf("warm repeat sweep should parse nothing:\n%s", warm)
	}
	if !strings.Contains(warm, "2 cached") {
		t.Errorf("warm sweep should replay both files per member:\n%s", warm)
	}
}

// TestCLIHipifyVerifyDemotes seeds the capture hazard end to end: the CLI
// must print the verifier warning, report the demotion, and leave the file
// unchanged.
func TestCLIHipifyVerifyDemotes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-hipify")
	src := "int f(int n) {\n\tint hipMalloc = 0;\n\tcudaMalloc(&hipMalloc, n);\n\treturn hipMalloc;\n}\n"
	file := filepath.Join(t.TempDir(), "seed.cu")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "--verify", "--in-place", "--stats", file).CombinedOutput()
	if err != nil {
		t.Fatalf("gocci-hipify --verify: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "[capture]") || !strings.Contains(s, "demoted") {
		t.Errorf("verifier finding not surfaced:\n%s", s)
	}
	b, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != src {
		t.Errorf("unsafe edit was written anyway:\n%s", b)
	}
}
