package sempatch

// End-to-end tests for gocci --campaign, its gocci-hipify alias, and gocci
// --list-campaigns: campaign runs must write the expected outputs in
// internal/hpc/testdata byte for byte, with explicit files and with -r,
// warm cache runs must report zero parses, and --verify must demote unsafe
// edits with visible warnings.

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
	bin := buildTool(t, "gocci")
	src, want := hpcFixture(t, "hipify/cli.cu", ".golden")
	file := filepath.Join(t.TempDir(), "app.cu")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diff, err := exec.Command(bin, "--campaign", "hipify", file).Output()
	if err != nil {
		t.Fatalf("gocci --campaign hipify: %v", err)
	}
	if !strings.Contains(string(diff), "+\thipError_t err = hipMalloc") {
		t.Fatalf("diff lacks the translation:\n%s", diff)
	}

	// --in-place goes through the atomic writer and preserves permissions.
	if err := os.Chmod(file, 0o640); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "--campaign", "hipify", "--in-place", file).CombinedOutput(); err != nil {
		t.Fatalf("gocci --campaign hipify --in-place: %v\n%s", err, out)
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

// TestCLIAcc2ompCampaignParity runs both acc2omp campaigns through gocci,
// once on an explicit file and once with -r over its directory: each run
// must exit 0 and leave the file equal to the mode's expected output, so
// the campaign's script hook is registered on both paths.
func TestCLIAcc2ompCampaignParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	for _, mode := range []string{"host", "offload"} {
		campaign := "acc2omp"
		if mode == "offload" {
			campaign = "acc2omp-offload"
		}
		src, want := hpcFixture(t, "acc2omp/cli.c", "."+mode+".golden")
		for _, recurse := range []bool{false, true} {
			dir := t.TempDir()
			file := filepath.Join(dir, "saxpy.c")
			if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"--campaign", campaign, "--in-place", file}
			if recurse {
				args = []string{"--campaign", campaign, "--in-place", "-r", dir}
			}
			if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
				t.Fatalf("gocci %v: %v\n%s", args, err, out)
			}
			b, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != want {
				t.Errorf("gocci %v: result differs from the expected output:\n%s", args, b)
			}
		}
	}
}

// TestCLIHipifyWarmCacheStats runs a recursive sweep twice with a cache
// dir: the repeat must report parsed: 0 with every member fully cached.
func TestCLIHipifyWarmCacheStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, _ := hpcFixture(t, "hipify/cli.cu", ".golden")
	tree := t.TempDir()
	for _, name := range []string{"a.cu", "b.cu"} {
		if err := os.WriteFile(filepath.Join(tree, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")
	run := func() string {
		cmd := exec.Command(bin, "--campaign", "hipify", "-r", "--stats", "--cache-dir", cacheDir, tree)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("gocci --campaign hipify -r: %v\n%s", err, out)
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
	bin := buildTool(t, "gocci")
	src := "int f(int n) {\n\tint hipMalloc = 0;\n\tcudaMalloc(&hipMalloc, n);\n\treturn hipMalloc;\n}\n"
	file := filepath.Join(t.TempDir(), "seed.cu")
	if err := os.WriteFile(file, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "--campaign", "hipify", "--verify", "--in-place", "--stats", file).CombinedOutput()
	if err != nil {
		t.Fatalf("gocci --campaign hipify --verify: %v\n%s", err, out)
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

// TestCLIHipifyAlias pins gocci-hipify as a pure argument-prefix alias: its
// diffs over the hipify corpus are byte-identical to gocci --campaign
// hipify's.
func TestCLIHipifyAlias(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := filepath.Join("internal", "hpc", "testdata", "hipify")
	alias, err := exec.Command(buildTool(t, "gocci-hipify"), "-r", "--verify", dir).Output()
	if err != nil {
		t.Fatalf("gocci-hipify: %v", err)
	}
	direct, err := exec.Command(buildTool(t, "gocci"), "--campaign", "hipify", "-r", "--verify", dir).Output()
	if err != nil {
		t.Fatalf("gocci --campaign hipify: %v", err)
	}
	if len(direct) == 0 || string(alias) != string(direct) {
		t.Errorf("alias stdout (%d bytes) differs from gocci --campaign hipify (%d bytes)", len(alias), len(direct))
	}
}
