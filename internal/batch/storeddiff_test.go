package batch

import (
	"os"
	"path/filepath"
	"strings"
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

// finalPatch fires only on otherRenamePatch's output, so a campaign ending
// with both changes a file once more.
const finalPatch = `@f@
expression list el;
@@
- another_api(el)
+ final_api(el)
`

// revertPatch undoes renamePatch: after both, the file is its input again.
const revertPatch = `@v@
expression list el;
@@
- new_api(el)
+ old_api(el)
`

// storedStates presents files the way a resident server does: the content
// hash is known and the text is read only on demand (ReadInput reports it).
func storedStates(files []core.SourceFile) []*FileState {
	states := make([]*FileState, len(files))
	for i, f := range files {
		src := f.Src
		states[i] = &FileState{Name: f.Name, Hash: cache.HashString(src),
			Read: func() (string, error) { return src, nil }}
	}
	return states
}

// runStored runs a campaign over storedStates(files) and returns the
// results and the states.
func runStored(t *testing.T, texts []string, opts Options, files []core.SourceFile) ([]CampaignFileResult, []*FileState) {
	t.Helper()
	states := storedStates(files)
	var out []CampaignFileResult
	NewCampaign(parseAll(t, texts), opts).RunStates(states, func(fr CampaignFileResult) bool { out = append(out, fr); return true })
	if len(out) != len(files) {
		t.Fatalf("got %d results for %d files", len(out), len(files))
	}
	return out, states
}

// TestStoredDiffParity pins the diff a warm replay prints from its cache
// records: byte for byte the no-store cold run's diff and diff.Unified over
// the file's input and output, labelled with the file's own name. No warm
// replay reads its input: a file one member changed prints that member's
// stored hunks, and a file several members changed prints the composed
// hunks of the campaign record.
func TestStoredDiffParity(t *testing.T) {
	// capture declares a local named like the rename's target, so verify
	// demotes the rename; the other members still change the file.
	capture := core.SourceFile{Name: "capture.c",
		Src: "void g(int x)\n{\n\tint new_api = 0;\n\told_api(x, new_api);\n\tother_api(x, 1);\n}\n"}
	both := core.SourceFile{Name: "both.c", Src: "void h(int x)\n{\n\told_api(x, 1);\n\tother_api(x, 2);\n}\n"}
	twin := corpus(1)[0]
	twin.Name = "twin.c"
	cases := []struct {
		name  string
		texts []string
		opts  Options
		files []core.SourceFile
		// changers is how many members change files[0]; demoted is the
		// member verify demotes on it (checked only under Verify).
		changers, demoted int
	}{
		{"file-level", []string{renamePatch}, Options{NoFuncCache: true}, corpus(4), 1, 0},
		{"function-granular", []string{fnDotsPatch}, Options{}, []core.SourceFile{
			fnBuildFile("fa.c", []string{"\tprepare(x);\n\twork(x, 1);\n\tcommit(x);\n", "\twork(x, 2);\n"}),
			fnBuildFile("fb.c", []string{"\twork(x, 3);\n"}),
		}, 1, 0},
		{"second-member-only", []string{secondPatch, renamePatch}, Options{}, corpus(4), 1, 0},
		{"both-members", []string{renamePatch, otherRenamePatch}, Options{}, []core.SourceFile{both, corpus(2)[1]}, 2, 0},
		{"reverted", []string{renamePatch, revertPatch}, Options{}, []core.SourceFile{both, corpus(1)[0]}, 2, 0},
		{"three-members", []string{renamePatch, secondPatch, otherRenamePatch}, Options{}, []core.SourceFile{both, corpus(3)[2]}, 3, 0},
		{"verify-demoted", []string{renamePatch, otherRenamePatch}, Options{Verify: true}, []core.SourceFile{capture, corpus(1)[0]}, 1, 0},
		{"verify-demoted-middle", []string{otherRenamePatch, renamePatch, finalPatch}, Options{Verify: true}, []core.SourceFile{capture, both}, 2, 1},
		{"same-content", []string{renamePatch}, Options{}, []core.SourceFile{corpus(1)[0], twin}, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plainOpts := tc.opts
			plainOpts.Workers = 2
			plain := runAll(t, NewCampaign(parseAll(t, tc.texts), plainOpts), tc.files)
			stored := plainOpts
			stored.CacheDir = filepath.Join(t.TempDir(), "cache")
			runAll(t, NewCampaign(parseAll(t, tc.texts), stored), tc.files)
			warm, states := runStored(t, tc.texts, stored, tc.files)

			for i, f := range tc.files {
				w, p := warm[i], plain[i]
				if w.Err != nil || p.Err != nil {
					t.Fatalf("%s: warm err %v, plain err %v", f.Name, w.Err, p.Err)
				}
				if want := diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, p.Output); p.Diff != want {
					t.Errorf("%s: plain diff differs from diff.Unified\ngot:\n%s\nwant:\n%s", f.Name, p.Diff, want)
				}
				if w.Diff != p.Diff {
					t.Errorf("%s: warm diff differs from plain\ngot:\n%s\nwant:\n%s", f.Name, w.Diff, p.Diff)
				}
				if p.Output == f.Src && w.Diff != "" {
					t.Errorf("%s: output is the input but the replay printed %q", f.Name, w.Diff)
				}
				if !w.OutputElided && w.Output != p.Output {
					t.Errorf("%s: warm output differs from plain", f.Name)
				}
				for _, o := range w.Patches {
					if !o.Cached {
						t.Errorf("%s: patch %s not replayed", f.Name, o.Patch)
					}
				}
				if states[i].ReadInput {
					t.Errorf("%s: warm replay read the input", f.Name)
				}
			}
			changers := 0
			for _, o := range plain[0].Patches {
				if o.Changed {
					changers++
				}
			}
			if changers != tc.changers {
				t.Errorf("%s: %d members changed it, want %d", tc.files[0].Name, changers, tc.changers)
			}
			if tc.opts.Verify && !warm[0].Patches[tc.demoted].Demoted {
				t.Errorf("%s: member %d not demoted", tc.files[0].Name, tc.demoted)
			}
		})
	}
}

// TestCampaignRecordOrderSensitive pins that the campaign record's key
// follows the member order. Every member record of the reordered campaign
// is stored (single-member runs wrote them), so only the campaign record
// can tell the two orders apart: the reordered run must miss it, read the
// input, and print the same diff a run without a store prints.
func TestCampaignRecordOrderSensitive(t *testing.T) {
	both := core.SourceFile{Name: "both.c", Src: "void h(int x)\n{\n\told_api(x, 1);\n\tother_api(x, 2);\n}\n"}
	opts := Options{Workers: 1, CacheDir: filepath.Join(t.TempDir(), "cache")}
	forward := []string{renamePatch, otherRenamePatch}
	reverse := []string{otherRenamePatch, renamePatch}

	// Store the reverse order's member records: other_api on the input,
	// then old_api on the text other_api's rename leaves.
	first := runAll(t, NewCampaign(parseAll(t, reverse[:1]), opts), []core.SourceFile{both})
	mid := core.SourceFile{Name: both.Name, Src: first[0].Output}
	runAll(t, NewCampaign(parseAll(t, reverse[1:]), opts), []core.SourceFile{mid})
	// The forward campaign stores its members and its campaign record.
	runAll(t, NewCampaign(parseAll(t, forward), opts), []core.SourceFile{both})

	fwd := NewCampaign(parseAll(t, forward), opts)
	rev := NewCampaign(parseAll(t, reverse), opts)
	fwd.keys()
	rev.keys()
	if fwd.key == rev.key {
		t.Fatal("reordered campaign has the same key")
	}

	plain := runAll(t, NewCampaign(parseAll(t, reverse), Options{Workers: 1}), []core.SourceFile{both})
	for round, wantRead := range []bool{true, false} {
		warm, states := runStored(t, reverse, opts, []core.SourceFile{both})
		for _, o := range warm[0].Patches {
			if !o.Cached || !o.Changed {
				t.Fatalf("round %d: member %s cached=%v changed=%v, want a replayed change", round, o.Patch, o.Cached, o.Changed)
			}
		}
		if states[0].ReadInput != wantRead {
			t.Errorf("round %d: read the input = %v, want %v", round, states[0].ReadInput, wantRead)
		}
		if warm[0].Diff != plain[0].Diff {
			t.Errorf("round %d: diff differs from plain\ngot:\n%s\nwant:\n%s", round, warm[0].Diff, plain[0].Diff)
		}
	}
}

// TestCampaignRecordCorruptionHeals flips one byte of a stored campaign
// record: the next run drops it, reads and diffs the file again, prints the
// same diff, and stores the record again, so the run after reads nothing.
func TestCampaignRecordCorruptionHeals(t *testing.T) {
	both := core.SourceFile{Name: "both.c", Src: "void h(int x)\n{\n\told_api(x, 1);\n\tother_api(x, 2);\n}\n"}
	files := []core.SourceFile{both}
	texts := []string{renamePatch, otherRenamePatch}
	dir := filepath.Join(t.TempDir(), "cache")
	opts := Options{Workers: 1, CacheDir: dir}
	plain := runAll(t, NewCampaign(parseAll(t, texts), Options{Workers: 1}), files)
	runAll(t, NewCampaign(parseAll(t, texts), opts), files)

	c := NewCampaign(parseAll(t, texts), opts)
	c.keys()
	h := cache.HashString(both.Src)
	path := filepath.Join(dir, "res", c.key, h[:2], h+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("campaign record not stored: %v", err)
	}
	at := strings.Index(string(b), "new_api")
	if at < 0 {
		t.Fatalf("campaign record carries no hunks: %s", b)
	}
	b[at] = 'N'
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var out []CampaignFileResult
	states := storedStates(files)
	c.RunStates(states, func(fr CampaignFileResult) bool { out = append(out, fr); return true })
	if n := c.Cache().CorruptEntries(); n != 1 {
		t.Errorf("corrupt entries = %d, want 1", n)
	}
	if !states[0].ReadInput {
		t.Error("corrupt campaign record was replayed instead of re-derived")
	}
	if out[0].Diff != plain[0].Diff {
		t.Errorf("diff after corruption differs from plain\ngot:\n%s\nwant:\n%s", out[0].Diff, plain[0].Diff)
	}
	healed, states := runStored(t, texts, opts, files)
	if states[0].ReadInput {
		t.Error("campaign record not stored again after corruption")
	}
	if healed[0].Diff != plain[0].Diff {
		t.Errorf("healed diff differs from plain\ngot:\n%s\nwant:\n%s", healed[0].Diff, plain[0].Diff)
	}
}
