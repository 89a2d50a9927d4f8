// Findings through the batch layer: check-rule reports must survive the
// file-level result cache verbatim, survive the function-granular cache in
// re-anchored form (identical to a fresh run even after unrelated parts of
// the file moved), and aggregate into the run statistics.

package batch

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/smpl"
)

var errReadForbidden = errors.New("warm replay must not read the file")

const checkPatchText = `// gocci:check id=sync-call severity=error msg="blocking call of sync_api(E)"
@s@
expression E;
@@
* sync_api(E);
`

func parseCheckPatch(t *testing.T) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch("check.cocci", checkPatchText)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFindingsFileCacheReplay pins the file-level result cache: a warm run
// replays findings byte-identical to the cold run that stored them.
func TestFindingsFileCacheReplay(t *testing.T) {
	files := []core.SourceFile{
		fnBuildFile("a.c", []string{"\tsync_api(x);\n", "\twork(x, 1);\n"}),
		fnBuildFile("b.c", []string{"\twork(x, 2);\n"}),
	}
	patch := parseCheckPatch(t)
	r := single(patch, Options{CacheDir: t.TempDir(), NoFuncCache: true})
	cold := runAll(t, r, files)
	if len(only(cold[0]).Findings) != 1 || only(cold[0]).Findings[0].Check != "sync-call" {
		t.Fatalf("cold findings = %+v", only(cold[0]).Findings)
	}
	if cold[0].Output != files[0].Src {
		t.Fatal("check patch rewrote its input")
	}
	warm := runAll(t, r, files)
	for i := range warm {
		if !only(warm[i]).Cached {
			t.Fatalf("%s not replayed from the cache", warm[i].Name)
		}
		if !reflect.DeepEqual(only(warm[i]).Findings, only(cold[i]).Findings) {
			t.Fatalf("%s: replayed findings differ\ncold: %+v\nwarm: %+v",
				warm[i].Name, only(cold[i]).Findings, only(warm[i]).Findings)
		}
	}
}

// TestFindingsFunctionCacheReanchor pins the function-granular cache: after
// editing one function, a warm run replays the other segments' findings and
// re-anchors them to the current parse — lines drift, baseline keys do not —
// producing exactly what an uncached run over the edited text reports.
func TestFindingsFunctionCacheReanchor(t *testing.T) {
	bodies := []string{"\twork(x, 0);\n", "\tsync_api(x);\n", "\tsync_api(y);\n"}
	file := fnBuildFile("m.c", bodies)
	patch := parseCheckPatch(t)
	r := single(patch, Options{CacheDir: t.TempDir()})
	cold := only(runAll(t, r, []core.SourceFile{file})[0])
	if len(cold.Findings) != 2 {
		t.Fatalf("cold findings = %+v", cold.Findings)
	}

	// Grow the first (non-matching) function: every later segment moves but
	// none of their content changes.
	edited := bodies
	edited[0] = "\twork(x, 0);\n\twork(x, 7);\n\twork(x, 9);\n"
	editedFile := fnBuildFile("m.c", edited)
	if editedFile.Src == file.Src {
		t.Fatal("edit did not change the file")
	}
	warm := only(runAll(t, r, []core.SourceFile{editedFile})[0])
	if warm.FuncsCached < 2 {
		t.Fatalf("FuncsCached = %d, want >= 2 (unchanged functions replayed)", warm.FuncsCached)
	}

	fresh := only(runAll(t, single(patch, Options{}), []core.SourceFile{editedFile})[0])
	got := append([]analysis.Finding(nil), warm.Findings...)
	want := append([]analysis.Finding(nil), fresh.Findings...)
	analysis.Sort(got)
	analysis.Sort(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed findings differ from a fresh run\nwarm:  %+v\nfresh: %+v", got, want)
	}
	// The findings moved with their functions but kept their identity.
	for i := range got {
		if got[i].Line <= cold.Findings[i].Line {
			t.Fatalf("finding %d did not drift: line %d -> %d", i, cold.Findings[i].Line, got[i].Line)
		}
	}
	coldKeys := map[string]bool{}
	for i := range cold.Findings {
		coldKeys[cold.Findings[i].BaselineKey()] = true
	}
	for i := range got {
		if !coldKeys[got[i].BaselineKey()] {
			t.Fatalf("baseline key changed across line drift: %s", got[i].BaselineKey())
		}
	}
}

// TestFindingsStats pins the aggregate counters and the per-file gathering of
// findings.
func TestFindingsStats(t *testing.T) {
	files := []core.SourceFile{
		fnBuildFile("a.c", []string{"\tsync_api(x);\n", "\tsync_api(y);\n"}),
		fnBuildFile("b.c", []string{"\twork(x, 1);\n"}),
	}
	st, err := single(parseCheckPatch(t), Options{}).Collect(files, func(fr CampaignFileResult) error {
		if fr.Name == "a.c" && len(fr.Findings()) != 2 {
			t.Errorf("a.c findings = %+v", fr.Findings())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.PerPatch[0].Findings != 2 || st.Changed != 0 {
		t.Fatalf("stats = %+v, want 2 findings, 0 changed", st)
	}
}

// TestFindingsCampaignStateReplay pins the resident-server path: a warm
// RunStates sweep replays findings from the result cache without reading the
// file.
func TestFindingsCampaignStateReplay(t *testing.T) {
	file := fnBuildFile("s.c", []string{"\tsync_api(x);\n"})
	c := NewCampaign([]*smpl.Patch{parseCheckPatch(t)}, Options{CacheDir: t.TempDir(), NoFuncCache: true})
	var cold []analysis.Finding
	if _, err := c.Collect([]core.SourceFile{file}, func(fr CampaignFileResult) error {
		cold = fr.Findings()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(cold) != 1 {
		t.Fatalf("cold campaign findings = %+v", cold)
	}
	st := &FileState{
		Name: "s.c",
		Hash: cache.HashString(file.Src),
		Read: func() (string, error) { return "", errReadForbidden },
	}
	var warm []analysis.Finding
	elided := false
	if _, err := c.CollectStates([]*FileState{st}, func(fr CampaignFileResult) error {
		warm = fr.Findings()
		elided = fr.OutputElided
		if fr.Err != nil {
			return fr.Err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !elided {
		t.Fatal("warm state sweep read the file instead of replaying")
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("state-replayed findings differ\ncold: %+v\nwarm: %+v", cold, warm)
	}
	if !strings.Contains(warm[0].Message, "sync_api(x)") {
		t.Fatalf("interpolated message lost in replay: %q", warm[0].Message)
	}
}
