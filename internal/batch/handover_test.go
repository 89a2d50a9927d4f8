package batch

import (
	"fmt"
	"testing"

	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// Each member edits the first function of a file, growing it, and needs a
// re-parse for its second rule: the functions after it are reused shifted.
const (
	handOverFirst = `@a@
@@
- old_api(1);
+ mid_api(1, 2);

@b@
@@
- mid_api(1, 2);
+ new_api(1, 2, 3);
`
	handOverSecond = `@c@
@@
- new_api(1, 2, 3);
+ newer_api(1, 2, 3, 4);

@d@
@@
- newer_api(1, 2, 3, 4);
+ newest_api(1, 2, 3, 4, 5);
`
)

// handOverRoundTrip edits and re-parses but leaves the text as it found it,
// so the next member runs on the tree it was given; handOverTail edits the
// functions handOverRoundTrip's re-parse reused.
const (
	handOverRoundTrip = `@a@
@@
- old_api(1);
+ mid_api(1, 2);

@b@
@@
- mid_api(1, 2);
+ old_api(1);
`
	handOverTail = `@e@
expression E;
@@
- E.m
+ E.n
`
)

func handOverFiles() []core.SourceFile {
	var files []core.SourceFile
	for i := 0; i < 4; i++ {
		src := "#include <a.h>\nint f(int x)\n{\n\told_api(1);\n\treturn x;\n}\n"
		for f := 0; f < 3; f++ {
			src += fmt.Sprintf("int f%d_%d(int x)\n{\n\treturn x.m + %d;\n}\n", i, f, f)
		}
		files = append(files, core.SourceFile{Name: fmt.Sprintf("h%d.c", i), Src: src})
	}
	return files
}

// TestHandOverKeepsCallerTrees checks the campaign hands a tree to the
// engine only when no one else holds it: trees in caller-prepared states
// come back unchanged, and runs over the campaign's own states, where the
// last member's re-parses shift in place, print what the caller-state runs
// print, with verification on and off.
func TestHandOverKeepsCallerTrees(t *testing.T) {
	first, second := parsePatch(t, handOverFirst), parsePatch(t, handOverSecond)
	roundTrip, tail := parsePatch(t, handOverRoundTrip), parsePatch(t, handOverTail)
	files := handOverFiles()
	for _, tc := range []struct {
		patches []*smpl.Patch
		verify  bool
	}{
		{[]*smpl.Patch{first}, false},
		{[]*smpl.Patch{first}, true},
		{[]*smpl.Patch{first, second}, false},
		{[]*smpl.Patch{first, second}, true},
		{[]*smpl.Patch{roundTrip, tail}, false},
	} {
		verify := tc.verify
		c := NewCampaign(tc.patches, Options{Workers: 2, Verify: verify})
		own := runAll(t, c, files)

		var states []*FileState
		var dumps []string
		for _, f := range files {
			tree, err := cparse.Parse(f.Name, f.Src, cparse.Options{})
			if err != nil {
				t.Fatal(err)
			}
			states = append(states, &FileState{Name: f.Name, Src: f.Src, Loaded: true, Parsed: tree})
			dumps = append(dumps, cast.Dump(tree))
		}
		var caller []CampaignFileResult
		c.RunStates(states, func(fr CampaignFileResult) bool { caller = append(caller, fr); return true })
		label := fmt.Sprintf("%d members, verify=%v", len(tc.patches), verify)
		compareResults(t, label+": campaign states vs caller states", own, caller)
		for i, st := range states {
			if got := cast.Dump(st.Parsed); got != dumps[i] {
				t.Errorf("%s: %s: the run changed the caller's tree:\n%s\nwas:\n%s", label, st.Name, got, dumps[i])
			}
		}
		for _, fr := range own {
			if fr.Err != nil || fr.Output == "" || fr.Output == files[fr.Index].Src {
				t.Fatalf("%s: %s: unexpected result %+v", label, fr.Name, fr)
			}
		}
	}
}
