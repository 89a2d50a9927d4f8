package batch

import (
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/diff"
)

// otherRenamePatch fires on input text the rename patch never touches, so a
// campaign of both changes a file twice only where it calls both APIs.
const otherRenamePatch = `@o@
expression list el;
@@
- other_api(el)
+ another_api(el)
`

// TestStoredDiffParity pins the diff a warm replay prints from its cache
// records: byte for byte the no-store cold run's diff and diff.Unified over
// the file's input and output, labelled with the file's own name. Files one
// member changed replay without a read; files several members changed fall
// back to reading the input and diffing it.
func TestStoredDiffParity(t *testing.T) {
	// capture declares a local named like the rename's target, so verify
	// demotes the rename; the second member still changes the file.
	capture := core.SourceFile{Name: "capture.c",
		Src: "void g(int x)\n{\n\tint new_api = 0;\n\told_api(x, new_api);\n\tother_api(x, 1);\n}\n"}
	both := core.SourceFile{Name: "both.c", Src: "void h(int x)\n{\n\told_api(x, 1);\n\tother_api(x, 2);\n}\n"}
	twin := corpus(1)[0]
	twin.Name = "twin.c"
	cases := []struct {
		name     string
		texts    []string
		opts     Options
		files    []core.SourceFile
		multiple bool // some file has two changers: reads are expected
	}{
		{"file-level", []string{renamePatch}, Options{NoFuncCache: true}, corpus(4), false},
		{"function-granular", []string{fnDotsPatch}, Options{}, []core.SourceFile{
			fnBuildFile("fa.c", []string{"\tprepare(x);\n\twork(x, 1);\n\tcommit(x);\n", "\twork(x, 2);\n"}),
			fnBuildFile("fb.c", []string{"\twork(x, 3);\n"}),
		}, false},
		{"second-member-only", []string{secondPatch, renamePatch}, Options{}, corpus(4), false},
		{"both-members", []string{renamePatch, otherRenamePatch}, Options{}, []core.SourceFile{both, corpus(2)[1]}, true},
		{"verify-demoted", []string{renamePatch, otherRenamePatch}, Options{Verify: true}, []core.SourceFile{capture, corpus(1)[0]}, false},
		{"same-content", []string{renamePatch}, Options{}, []core.SourceFile{corpus(1)[0], twin}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts Options, states []*FileState) []CampaignFileResult {
				opts.Workers = 2
				c := NewCampaign(parseAll(t, tc.texts), opts)
				if states == nil {
					return runAll(t, c, tc.files)
				}
				var out []CampaignFileResult
				c.RunStates(states, func(fr CampaignFileResult) bool { out = append(out, fr); return true })
				return out
			}
			plain := run(tc.opts, nil)
			stored := tc.opts
			stored.CacheDir = filepath.Join(t.TempDir(), "cache")
			run(stored, nil)
			states := make([]*FileState, len(tc.files))
			for i, f := range tc.files {
				src := f.Src
				states[i] = &FileState{Name: f.Name, Hash: cache.HashString(src),
					Read: func() (string, error) { return src, nil }}
			}
			warm := run(stored, states)

			changed := 0
			for i, f := range tc.files {
				w, p := warm[i], plain[i]
				if w.Err != nil || p.Err != nil {
					t.Fatalf("%s: warm err %v, plain err %v", f.Name, w.Err, p.Err)
				}
				if p.Diff != "" {
					changed++
				}
				if want := diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, p.Output); p.Diff != want {
					t.Errorf("%s: plain diff differs from diff.Unified\ngot:\n%s\nwant:\n%s", f.Name, p.Diff, want)
				}
				if w.Diff != p.Diff {
					t.Errorf("%s: warm diff differs from plain\ngot:\n%s\nwant:\n%s", f.Name, w.Diff, p.Diff)
				}
				if !w.OutputElided && w.Output != p.Output {
					t.Errorf("%s: warm output differs from plain", f.Name)
				}
				for _, o := range w.Patches {
					if !o.Cached {
						t.Errorf("%s: patch %s not replayed", f.Name, o.Patch)
					}
				}
				if !tc.multiple && states[i].ReadInput {
					t.Errorf("%s: warm replay read the input", f.Name)
				}
			}
			if changed == 0 {
				t.Fatal("no file changed: the case exercises nothing")
			}
			if tc.opts.Verify && !warm[0].Patches[0].Demoted {
				t.Errorf("%s: rename not demoted", tc.files[0].Name)
			}
			if tc.multiple && !states[0].ReadInput {
				t.Errorf("%s: two-changer file replayed without reading its input", tc.files[0].Name)
			}
		})
	}
}
