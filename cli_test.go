package sempatch

// End-to-end CLI integration tests: build the tools with the Go toolchain
// and run them on the shipped testdata, exactly as a user would.

import (
	"bufio"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// buildTool compiles one command into a temp dir, once per test binary.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func TestCLIGocciDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	out, err := exec.Command(bin, "--sp-file", "testdata/rename.cocci", "testdata/setup.c").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci: %v\n%s", err, out)
	}
	s := string(out)
	for _, w := range []string{"-\told_solver_init(g, rank);", "+\tsolver_init_v2(g, rank);", "@@"} {
		if !strings.Contains(s, w) {
			t.Errorf("diff missing %q:\n%s", w, s)
		}
	}
}

// A CRLF file keeps its carriage returns on directive lines: a rename in
// the body changes only the line it touches. The directive lexer used to
// drop the '\r' before each newline it ended on, so every changed CRLF
// file also rewrote its #include and #define lines.
func TestCLIGocciCRLFDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	dir := t.TempDir()
	patch := filepath.Join(dir, "rename.cocci")
	src := filepath.Join(dir, "crlf.c")
	if err := os.WriteFile(patch, []byte("@@\n@@\n- foo\n+ bar\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	text := "#include <a.h>\r\n#define N 4\r\nint f(void)\r\n{\r\n\treturn foo(N);\r\n}\r\n"
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "--sp-file", patch, src).CombinedOutput()
	if err != nil {
		t.Fatalf("gocci: %v\n%s", err, out)
	}
	var changed []string
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if (strings.HasPrefix(line, "-") || strings.HasPrefix(line, "+")) &&
			!strings.HasPrefix(line, "---") && !strings.HasPrefix(line, "+++") {
			changed = append(changed, line)
		}
	}
	want := []string{"-\treturn foo(N);\r\n", "+\treturn bar(N);\r\n"}
	if strings.Join(changed, "") != strings.Join(want, "") {
		t.Errorf("changed lines = %q, want %q\n%s", changed, want, out)
	}
}

func TestCLIGocciInPlace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(t.TempDir(), "setup.c")
	if err := os.WriteFile(work, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "--sp-file", "testdata/rename.cocci", "--in-place", work).CombinedOutput(); err != nil {
		t.Fatalf("gocci --in-place: %v\n%s", err, out)
	}
	got, err := os.ReadFile(work)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "solver_init_v2(g, rank);") {
		t.Errorf("file not rewritten:\n%s", got)
	}
	if strings.Contains(string(got), "old_solver_init") {
		t.Errorf("old calls remain:\n%s", got)
	}
}

// An executable source file (a build script's generated .c, a checked-in
// tool) must stay executable after -r --in-place: the rewrite used to
// hard-code 0644 and clobber the mode. The write is also atomic (temp file
// + rename), which this test can only witness indirectly: the rewritten
// file is complete and carries the original bits.
func TestCLIGocciInPlacePreservesMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	work := filepath.Join(tree, "exec.c")
	if err := os.WriteFile(work, src, 0o755); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(bin, "-r", "--in-place", tree, "testdata/rename.cocci").CombinedOutput(); err != nil {
		t.Fatalf("gocci -r --in-place: %v\n%s", err, out)
	}
	got, err := os.ReadFile(work)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "solver_init_v2(g, rank);") {
		t.Errorf("file not rewritten:\n%s", got)
	}
	info, err := os.Stat(work)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o755 {
		t.Errorf("mode = %o after --in-place, want 755 preserved", info.Mode().Perm())
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(tree)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".gocci-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}

// A symlinked source must be patched through the link: the atomic rename
// targets the resolved file, never replaces the link with a regular copy.
func TestCLIGocciInPlaceFollowsSymlinks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	real := filepath.Join(root, "real")
	tree := filepath.Join(root, "tree")
	for _, d := range []string{real, tree} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	target := filepath.Join(real, "target.c")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}
	link := filepath.Join(tree, "link.c")
	if err := os.Symlink(filepath.Join("..", "real", "target.c"), link); err != nil {
		t.Skipf("cannot create symlinks here: %v", err)
	}
	if out, err := exec.Command(bin, "-r", "--in-place", tree, "testdata/rename.cocci").CombinedOutput(); err != nil {
		t.Fatalf("gocci -r --in-place: %v\n%s", err, out)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("link.c is no longer a symlink (mode %v, err %v)", fi.Mode(), err)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "solver_init_v2(g, rank);") {
		t.Errorf("symlink target not rewritten:\n%s", got)
	}
}

func TestCLIGocciRecursive(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if err := os.MkdirAll(filepath.Join(tree, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.c", "sub/b.c", "sub/c.cpp"} {
		if err := os.WriteFile(filepath.Join(tree, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// note: .txt files must be ignored by the scanner
	if err := os.WriteFile(filepath.Join(tree, "notes.txt"), []byte("old_solver_init"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The patch is positional here, exercising `gocci -j N -r dir patch.cocci`.
	out, err := exec.Command(bin, "-j", "2", "-r", "--stats", tree, "testdata/rename.cocci").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci -r: %v\n%s", err, out)
	}
	s := string(out)
	if got := strings.Count(s, "+\tsolver_init_v2(g, rank);"); got != 3 {
		t.Errorf("want 3 patched files in diff, got %d:\n%s", got, s)
	}
	if !strings.Contains(s, "3 files scanned, 0 skipped by prefilter, 0 cached, 3 matched") || !strings.Contains(s, "3 changed") {
		t.Errorf("stats summary missing or wrong:\n%s", s)
	}
	// Diffs must come out in sorted path order regardless of workers.
	ia := strings.Index(s, "a/"+filepath.Join(tree, "a.c"))
	ib := strings.Index(s, "a/"+filepath.Join(tree, "sub/b.c"))
	ic := strings.Index(s, "a/"+filepath.Join(tree, "sub/c.cpp"))
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Errorf("diff order not deterministic (indices %d %d %d):\n%s", ia, ib, ic, s)
	}
}

// The prefilter skips files the patch provably cannot touch; --stats
// reports them and --no-prefilter forces them through the parser.
func TestCLIGocciPrefilterStats(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if err := os.WriteFile(filepath.Join(tree, "hit.c"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	miss := "void unrelated(void)\n{\n\tnothing_here(1);\n}\n"
	if err := os.WriteFile(filepath.Join(tree, "miss.c"), []byte(miss), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(bin, "-r", "--stats", tree, "testdata/rename.cocci").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci -r --stats: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "2 files scanned, 1 skipped by prefilter, 0 cached, 1 matched") {
		t.Errorf("stats should count the skipped file:\n%s", out)
	}

	out, err = exec.Command(bin, "-r", "--stats", "--no-prefilter", tree, "testdata/rename.cocci").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci -r --stats --no-prefilter: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "2 files scanned, 0 skipped by prefilter, 0 cached, 1 matched") {
		t.Errorf("--no-prefilter should parse everything:\n%s", out)
	}
}

// Several positional .cocci files run as a campaign: each file sees the
// patches in command order, so chain.cocci fires on rename.cocci's output
// and the printed diff is the net effect.
func TestCLIGocciCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if err := os.WriteFile(filepath.Join(tree, "a.c"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-r", "--stats", tree,
		"testdata/rename.cocci", "testdata/chain.cocci").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci campaign: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "+\tsolver_init_v3(g, rank);") {
		t.Errorf("second patch did not fire on the first's output:\n%s", s)
	}
	if strings.Contains(s, "solver_init_v2") {
		t.Errorf("net diff leaks the intermediate state:\n%s", s)
	}
	for _, w := range []string{
		"1 files scanned, 1 changed",
		"patch testdata/rename.cocci:",
		"patch testdata/chain.cocci:",
	} {
		if !strings.Contains(s, w) {
			t.Errorf("campaign stats missing %q:\n%s", w, s)
		}
	}
}

// In non-recursive mode too, a -D name declared virtual in only one of the
// patches configures that patch and is invisible to the others, and
// --quiet attributes rule match counts to their own patch even when rule
// names collide.
func TestCLIGocciMultiPatchSingleMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	dir := t.TempDir()
	va := filepath.Join(dir, "va.cocci")
	vb := filepath.Join(dir, "vb.cocci")
	vc := filepath.Join(dir, "vc.cocci")
	src := filepath.Join(dir, "t.c")
	writeAll := map[string]string{
		va:  "virtual foo;\n@a depends on foo@\nexpression list el;\n@@\n- alpha(el)\n+ alpha2(el)\n",
		vb:  "@fix@\nexpression list el;\n@@\n- beta(el)\n+ beta2(el)\n",
		vc:  "@fix@\nexpression list el;\n@@\n- beta2(el)\n+ beta3(el)\n",
		src: "void t(void)\n{\n\talpha(1);\n\tbeta(2);\n}\n",
	}
	for path, content := range writeAll {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	out, err := exec.Command(bin, "-D", "foo", va, vb, src).CombinedOutput()
	if err != nil {
		t.Fatalf("-D declared in one patch must not abort the run: %v\n%s", err, out)
	}
	for _, w := range []string{"alpha2(1)", "beta2(2)"} {
		if !strings.Contains(string(out), w) {
			t.Errorf("diff missing %q:\n%s", w, out)
		}
	}
	if err := exec.Command(bin, "-D", "nonsense", va, vb, src).Run(); err == nil {
		t.Error("a define declared in no patch must fail the run")
	}

	// Both patches name their rule `fix` and match once each; the counts
	// must not merge.
	out, err = exec.Command(bin, "--quiet", vb, vc, src).Output()
	if err != nil {
		t.Fatalf("gocci --quiet: %v", err)
	}
	s := string(out)
	if strings.Count(s, "matches=1") != 2 || strings.Contains(s, "matches=2") {
		t.Errorf("per-patch rule counts merged:\n%s", s)
	}
	if !strings.Contains(s, vb+":") || !strings.Contains(s, vc+":") {
		t.Errorf("quiet lines not attributed to their patch:\n%s", s)
	}
}

// A warm --cache-dir run replays results — reported as cached, distinctly
// from prefilter skips — and prints byte-identical diffs.
func TestCLIGocciCacheWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if err := os.WriteFile(filepath.Join(tree, "hit.c"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	miss := "void unrelated(void)\n{\n\tnothing_here(1);\n}\n"
	if err := os.WriteFile(filepath.Join(tree, "miss.c"), []byte(miss), 0o644); err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(t.TempDir(), "cache")

	run := func() (string, string) {
		cmd := exec.Command(bin, "-r", "--stats", "--cache-dir", cacheDir, tree, "testdata/rename.cocci")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("gocci --cache-dir: %v\n%s", err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	coldOut, coldErr := run()
	warmOut, warmErr := run()
	if warmOut != coldOut {
		t.Errorf("warm diffs differ from cold:\ncold:\n%s\nwarm:\n%s", coldOut, warmOut)
	}
	if !strings.Contains(coldErr, "1 skipped by prefilter, 0 cached") {
		t.Errorf("cold stats wrong:\n%s", coldErr)
	}
	if !strings.Contains(warmErr, "0 skipped by prefilter, 2 cached") {
		t.Errorf("warm stats should report both files cached, distinct from skipped:\n%s", warmErr)
	}

	// Corrupt every result entry: the next run must drop and rebuild them,
	// still print the right diff, and say what happened.
	err = filepath.WalkDir(filepath.Join(cacheDir, "res"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.WriteFile(path, []byte("{garbage"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	healOut, healErr := run()
	if healOut != coldOut {
		t.Errorf("output after corruption differs:\n%s", healOut)
	}
	if !strings.Contains(healErr, "corrupt cache entries") || !strings.Contains(healErr, "dropped and rebuilt") {
		t.Errorf("corruption not reported with remediation:\n%s", healErr)
	}
	// And the rebuild healed the cache.
	_, finalErr := run()
	if !strings.Contains(finalErr, "2 cached") {
		t.Errorf("cache did not heal:\n%s", finalErr)
	}
}

// A --cache-dir holding records from an engine of another output version
// must miss them: each seeded record claims a wrong diff, one under the key
// a cache had before the output version joined it, one under an older
// version. gocci prints byte-for-byte what a run without the cache prints.
// The same record under the current version does replay, which shows the
// seeding writes where gocci reads.
func TestCLIGocciCacheStaleOutputVersion(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	patch, err := os.ReadFile("testdata/rename.cocci")
	if err != nil {
		t.Fatal(err)
	}
	tree := t.TempDir()
	if err := os.WriteFile(filepath.Join(tree, "hit.c"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, string) {
		cmd := exec.Command(bin, append(append([]string{"-r", "--stats"}, args...), tree, "testdata/rename.cocci")...)
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("gocci %v: %v\n%s", args, err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}
	seeded := func(fingerprint string) string {
		dir := filepath.Join(t.TempDir(), "cache")
		store, err := cache.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec := &cache.Record{Changed: true, Output: "stale output\n",
			Diff: "@@ -1 +1 @@\n-stale\n+output\n", MatchCount: map[string]int{"rename": 1}}
		if err := store.PutResult(cache.ResultKey(string(patch), fingerprint), cache.HashString(string(src)), rec); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	plain, _ := run()
	// The options fingerprint of a plain C run (batch.fingerprint).
	fp := "cpp=false,std=0,cuda=false,maxenvs=4096,maxmatch=0,D="
	if out, _ := run("--cache-dir", seeded(fp+",out="+core.OutputVersion)); !strings.Contains(out, "+output") {
		t.Fatalf("a record under the current output version did not replay, so the seeding misses gocci's key:\n%s", out)
	}
	for _, stale := range []string{fp, fp + ",out=0"} {
		out, errOut := run("--cache-dir", seeded(stale))
		if out != plain {
			t.Errorf("cache with a record under %q printed:\n%s\nwant what an uncached run prints:\n%s", stale, out, plain)
		}
		if !strings.Contains(errOut, "0 cached") {
			t.Errorf("cache with a record under %q replayed it:\n%s", stale, errOut)
		}
	}
}

// An unusable --cache-dir is a hard error with a clear remediation message,
// exit code 1 — never a silent fallback.
func TestCLIGocciCacheDirUnusable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	tree := t.TempDir()
	if err := os.WriteFile(filepath.Join(tree, "a.c"), []byte("void f(void) {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-r", "--cache-dir", notADir, tree, "testdata/rename.cocci").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "delete it or choose another --cache-dir") {
		t.Errorf("no remediation message:\n%s", out)
	}
}

func TestCLIGocciGenAndParse(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	gen := buildTool(t, "gocci-gen")
	out, err := exec.Command(gen, "--shape", "cuda", "--funcs", "2", "--stmts", "1").Output()
	if err != nil {
		t.Fatalf("gocci-gen: %v", err)
	}
	if !strings.Contains(string(out), "cudaMalloc") {
		t.Fatalf("generator output unexpected:\n%s", out)
	}
	cu := filepath.Join(t.TempDir(), "app.cu")
	if err := os.WriteFile(cu, out, 0o644); err != nil {
		t.Fatal(err)
	}

	parse := buildTool(t, "gocci-parse")
	stats, err := exec.Command(parse, "--dump", "stats", "--cuda", cu).Output()
	if err != nil {
		t.Fatalf("gocci-parse: %v", err)
	}
	if !strings.Contains(string(stats), "funcs") {
		t.Errorf("stats output: %s", stats)
	}

	hip := buildTool(t, "gocci-hipify")
	diffOut, err := exec.Command(hip, cu).Output()
	if err != nil {
		t.Fatalf("gocci-hipify: %v", err)
	}
	if !strings.Contains(string(diffOut), "+\thipError_t err = hipMalloc") &&
		!strings.Contains(string(diffOut), "hipMalloc") {
		t.Errorf("hipify diff missing:\n%s", diffOut)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	// no args: exit 2
	err := exec.Command(bin).Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("usage error exit: %v", err)
	}
}

// exitCode runs the command and returns its exit code (0 on success).
func exitCode(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v", bin, args, err)
	}
	return ee.ExitCode(), string(out)
}

// TestCLIExitCodes audits the documented contract (docs/cli.md): usage
// errors exit 2, patch/parse/runtime errors exit 1, and a run that applied
// changes — or had none to apply — exits 0.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	dir := t.TempDir()
	okSrc := filepath.Join(dir, "ok.c")
	if err := os.WriteFile(okSrc, []byte("void f(void)\n{\n\told_solver_init(0, 1);\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	brokenSrc := filepath.Join(dir, "broken.c")
	// Contains the patch's required atom, so even the prefilter cannot hide
	// its parse error.
	if err := os.WriteFile(brokenSrc, []byte("old_solver_init(\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	badPatch := filepath.Join(dir, "bad.cocci")
	if err := os.WriteFile(badPatch, []byte("@r@\nthis is not smpl\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Usage errors: exit 2.
	for _, args := range [][]string{
		{},                        // nothing at all
		{"testdata/rename.cocci"}, // patch but no sources
		{"--bogus-flag", okSrc},   // unknown flag (flag package convention)
	} {
		if code, out := exitCode(t, bin, args...); code != 2 {
			t.Errorf("gocci %v: exit %d, want 2\n%s", args, code, out)
		}
	}

	// Patch and parse errors: exit 1.
	if code, out := exitCode(t, bin, "--sp-file", filepath.Join(dir, "missing.cocci"), okSrc); code != 1 {
		t.Errorf("missing patch file: exit %d, want 1\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--sp-file", badPatch, okSrc); code != 1 {
		t.Errorf("unparsable patch: exit %d, want 1\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--sp-file", "testdata/rename.cocci", brokenSrc); code != 1 {
		t.Errorf("unparsable source (single mode): exit %d, want 1\n%s", code, out)
	}

	// A per-file failure in batch mode still processes the other files,
	// then exits 1 (docs/cli.md).
	code, out := exitCode(t, bin, "-r", dir, "testdata/rename.cocci")
	if code != 1 {
		t.Errorf("batch with one broken file: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "solver_init_v2(0, 1)") {
		t.Errorf("batch with one broken file must still patch the others:\n%s", out)
	}

	// Success: exit 0 both when changes were applied and when there were
	// none to apply.
	if code, out := exitCode(t, bin, "--sp-file", "testdata/rename.cocci", okSrc); code != 0 {
		t.Errorf("applied with changes: exit %d, want 0\n%s", code, out)
	}
	noMatch := filepath.Join(dir, "nomatch.c")
	if err := os.WriteFile(noMatch, []byte("void g(void)\n{\n\tidle();\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode(t, bin, "--sp-file", "testdata/rename.cocci", noMatch); code != 0 {
		t.Errorf("no changes: exit %d, want 0\n%s", code, out)
	}

	// Check mode: findings at or above --fail-on exit 1, a clean tree exits
	// 0, and check-specific usage errors exit 2.
	checkPatch := filepath.Join(dir, "check.cocci")
	if err := os.WriteFile(checkPatch, []byte(
		"// gocci:check id=no-old-init severity=warning msg=\"legacy init old_solver_init(A, B)\"\n"+
			"@legacy@\nexpression A, B;\n@@\n* old_solver_init(A, B);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out := exitCode(t, bin, "--check", "--fail-on", "warning", "--sp-file", checkPatch, okSrc); code != 1 {
		t.Errorf("check with findings at threshold: exit %d, want 1\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--check", "--sp-file", checkPatch, okSrc); code != 0 {
		// Default --fail-on is error; these findings are warnings.
		t.Errorf("check with findings below threshold: exit %d, want 0\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--check", "--fail-on", "info", "--sp-file", checkPatch, noMatch); code != 0 {
		t.Errorf("clean check: exit %d, want 0\n%s", code, out)
	}
	for _, args := range [][]string{
		{"--check", "--in-place", "--sp-file", checkPatch, okSrc},
		{"--check", "--format", "xml", "--sp-file", checkPatch, okSrc},
		{"--check", "--fail-on", "fatal", "--sp-file", checkPatch, okSrc},
		{"--check", "--baseline-write", "--sp-file", checkPatch, okSrc},
		{"--baseline", "b.json", "--sp-file", checkPatch, okSrc},
	} {
		if code, out := exitCode(t, bin, args...); code != 2 {
			t.Errorf("gocci %v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// TestCLICheckMode exercises the static-analysis surface end to end:
// reporter formats, the warm-cache "parsed: 0" sweep, the baseline
// write/suppress workflow across unrelated edits, and the --stats labelling
// of silent check rules.
func TestCLICheckMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	dir := t.TempDir()
	tree := filepath.Join(dir, "tree")
	if err := os.MkdirAll(tree, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "int f(int x)\n{\n\tsync_api(x);\n\treturn x;\n}\nint g(int y)\n{\n\treturn y + 1;\n}\n"
	if err := os.WriteFile(filepath.Join(tree, "a.c"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	patch := filepath.Join(dir, "check.cocci")
	if err := os.WriteFile(patch, []byte(
		"// gocci:check id=sync-call severity=error msg=\"blocking call of sync_api(E)\"\n"+
			"@s@\nexpression E;\n@@\n* sync_api(E);\n\n"+
			"// gocci:check id=quiet severity=info msg=\"never present\"\n"+
			"@q@\n@@\n* never_called_anywhere();\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Text format: compiler style, message interpolated, and no diff output.
	code, out := exitCode(t, bin, "--check", "--sp-file", patch, filepath.Join(tree, "a.c"))
	if code != 1 {
		t.Fatalf("check: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "a.c:3:2: error: blocking call of sync_api(x) [sync-call]") {
		t.Errorf("text finding missing:\n%s", out)
	}
	if strings.Contains(out, "@@") || strings.Contains(out, "---") {
		t.Errorf("check mode printed a diff:\n%s", out)
	}

	// NDJSON format: one JSON object per finding.
	_, out = exitCode(t, bin, "--check", "--format", "json", "--sp-file", patch, filepath.Join(tree, "a.c"))
	if !strings.Contains(out, `"check":"sync-call"`) || !strings.Contains(out, `"severity":"error"`) {
		t.Errorf("json finding missing:\n%s", out)
	}

	// SARIF format parses and carries the baseline fingerprint.
	_, out = exitCode(t, bin, "--check", "--format", "sarif", "--sp-file", patch, filepath.Join(tree, "a.c"))
	if !strings.Contains(out, `"version": "2.1.0"`) || !strings.Contains(out, "gocciBaseline/v1") {
		t.Errorf("sarif output missing required fields:\n%s", out)
	}

	// Warm sweep: the second recursive run replays from the cache and
	// reports parsed: 0, with the findings intact.
	cacheDir := filepath.Join(dir, "cache")
	code, out = exitCode(t, bin, "--check", "--fail-on", "info", "-r", "--cache-dir", cacheDir, tree, patch)
	if code != 1 || !strings.Contains(out, "parsed: 1") {
		t.Fatalf("cold sweep: exit %d\n%s", code, out)
	}
	code, out = exitCode(t, bin, "--check", "--fail-on", "info", "-r", "--cache-dir", cacheDir, tree, patch)
	if code != 1 {
		t.Fatalf("warm sweep: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "parsed: 0") {
		t.Errorf("warm sweep did not replay from the cache:\n%s", out)
	}
	if !strings.Contains(out, "[sync-call]") {
		t.Errorf("warm sweep lost the findings:\n%s", out)
	}

	// Baseline workflow: record, then suppress — including across an edit
	// to an unrelated function, which must introduce zero new findings.
	baseline := filepath.Join(dir, "bl.json")
	if code, out := exitCode(t, bin, "--check", "--baseline", baseline, "--baseline-write", "-r", tree, patch); code != 0 {
		t.Fatalf("baseline write: exit %d\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--check", "--baseline", baseline, "-r", tree, patch); code != 0 || !strings.Contains(out, "suppressed by baseline") {
		t.Fatalf("baseline run: exit %d\n%s", code, out)
	}
	edited := strings.Replace(src, "return y + 1;", "int z = y * 2;\n\treturn z + 1;", 1)
	if edited == src {
		t.Fatal("edit did not apply")
	}
	if err := os.WriteFile(filepath.Join(tree, "a.c"), []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = exitCode(t, bin, "--check", "--baseline", baseline, "-r", tree, patch)
	if code != 0 {
		t.Fatalf("baseline after unrelated edit: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "0 findings") || !strings.Contains(out, "1 suppressed by baseline") {
		t.Errorf("unrelated edit produced new findings:\n%s", out)
	}

	// --stats labels a silent check rule distinctly from a silent
	// transform rule.
	_, out = exitCode(t, bin, "--check", "--stats", "--sp-file", patch, filepath.Join(tree, "a.c"))
	if !strings.Contains(out, "check rule q never fired") {
		t.Errorf("silent check rule not labelled:\n%s", out)
	}
}

// TestCLIVet exercises the patch linter subcommand: clean patches exit 0,
// patches with issues print them and exit 1, and no arguments is a usage
// error.
func TestCLIVet(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci")
	dir := t.TempDir()

	if code, out := exitCode(t, bin, "vet"); code != 2 {
		t.Errorf("vet without args: exit %d, want 2\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "vet", "testdata/rename.cocci"); code != 0 {
		t.Errorf("vet clean patch: exit %d, want 0\n%s", code, out)
	}
	bad := filepath.Join(dir, "bad.cocci")
	if err := os.WriteFile(bad, []byte(
		"@a@\nexpression E;\nexpression Dead;\n@@\n- f(E);\n+ g(E);\n\n"+
			"@b depends on nosuchrule@\nexpression E;\n@@\n- h(E);\n+ k(E);\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out := exitCode(t, bin, "vet", bad)
	if code != 1 {
		t.Errorf("vet with issues: exit %d, want 1\n%s", code, out)
	}
	for _, w := range []string{"unused-metavar", "unreachable-rule", "Dead"} {
		if !strings.Contains(out, w) {
			t.Errorf("vet output missing %q:\n%s", w, out)
		}
	}
}

// TestCLIVersionFlag pins the shared --version convention across all six
// tools: exit 0, "tool version" on stdout, and -h usage output leading
// with the same version line.
func TestCLIVersionFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, tool := range []string{"gocci", "gocci-parse", "gocci-gen", "gocci-hipify", "gocci-acc2omp", "gocci-serve"} {
		bin := buildTool(t, tool)
		out, err := exec.Command(bin, "--version").Output()
		if err != nil {
			t.Errorf("%s --version: %v", tool, err)
			continue
		}
		fields := strings.Fields(string(out))
		if len(fields) != 2 || fields[0] != tool || fields[1] == "" {
			t.Errorf("%s --version printed %q, want %q + version", tool, out, tool)
		}
		// -h leads with the same "tool version" line (exit 0, flag package
		// convention for an explicit help request).
		help, _ := exec.Command(bin, "-h").CombinedOutput()
		if !strings.HasPrefix(string(help), fields[0]+" "+fields[1]+"\n") {
			t.Errorf("%s -h does not lead with the version line:\n%s", tool, help)
		}
	}
}

// TestCLIServe drives the daemon end to end exactly as CI does: start it
// on an ephemeral port, wait for /healthz, apply a snippet, sweep twice,
// and verify the warm sweep reports cached results and zero parses.
func TestCLIServe(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-serve")

	// Usage and startup failures first: exit 2 and 1 respectively.
	if code, out := exitCode(t, bin); code != 2 {
		t.Errorf("no args: exit %d, want 2\n%s", code, out)
	}
	if code, out := exitCode(t, bin, "--root", filepath.Join(t.TempDir(), "nope"), "testdata/rename.cocci"); code != 1 {
		t.Errorf("missing root: exit %d, want 1\n%s", code, out)
	}

	src, err := os.ReadFile("testdata/setup.c")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	for _, name := range []string{"a.c", "b.c"} {
		if err := os.WriteFile(filepath.Join(root, name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	cmd := exec.Command(bin, "--addr", "127.0.0.1:0", "--root", root, "--watch", "0", "testdata/rename.cocci")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		cmd.Wait()
	}()

	// The daemon announces its bound address on stderr.
	var base string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "on http://"); ok {
			base = "http://" + addr
			break
		}
	}
	if base == "" {
		t.Fatal("daemon never announced its address")
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	post := func(path, body string) string {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	if h := get("/healthz"); !strings.Contains(h, `"status":"ok"`) {
		t.Fatalf("healthz: %s", h)
	}
	apply := post("/v1/apply", `{"session":"default","file":"a.c"}`)
	if !strings.Contains(apply, "solver_init_v2") {
		t.Errorf("apply response missing the rewrite: %s", apply)
	}
	post("/v1/sessions/default/run", "")
	warm := post("/v1/sessions/default/run", "")
	if !strings.Contains(warm, `"parsed":0`) {
		t.Errorf("warm sweep re-parsed unchanged files: %s", warm)
	}
	if strings.Contains(warm, `"cached":0,`) {
		t.Errorf("warm sweep reported nothing cached: %s", warm)
	}
	if m := get("/metrics"); !strings.Contains(m, "gocci_serve_sessions 1") {
		t.Errorf("metrics: %s", m)
	}
}

func TestCLIGocciInfer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := buildTool(t, "gocci-infer")
	cocci := filepath.Join(t.TempDir(), "inferred.cocci")
	out, err := exec.Command(bin, "-o", cocci, "--rule", "lift",
		"testdata/infer_before.c", "testdata/infer_after.c").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci-infer: %v\n%s", err, out)
	}
	b, err := os.ReadFile(cocci)
	if err != nil {
		t.Fatal(err)
	}
	sp := string(b)
	for _, w := range []string{"@lift@", "- ", "+ ", "new_api"} {
		if !strings.Contains(sp, w) {
			t.Errorf("inferred patch missing %q:\n%s", w, sp)
		}
	}

	// The emitted .cocci must be directly usable by the gocci front end and
	// reproduce the demonstrated edit.
	gocci := buildTool(t, "gocci")
	diff, err := exec.Command(gocci, "--sp-file", cocci, "testdata/infer_before.c").CombinedOutput()
	if err != nil {
		t.Fatalf("gocci with inferred patch: %v\n%s", err, diff)
	}
	if !strings.Contains(string(diff), "new_api") {
		t.Errorf("inferred patch did not rewrite the before file:\n%s", diff)
	}
}
