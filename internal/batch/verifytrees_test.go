package batch

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cparse"
)

// runCounting runs a campaign over one in-memory file and returns its
// result and the number of whole-file parses the run made.
func runCounting(t *testing.T, texts []string, opts Options, src string) (CampaignFileResult, int64) {
	t.Helper()
	c := NewCampaign(parseAll(t, texts), opts)
	var got CampaignFileResult
	before := cparse.Parses()
	c.Run([]core.SourceFile{{Name: "t.c", Src: src}}, func(fr CampaignFileResult) bool {
		got = fr
		return true
	})
	if got.Err != nil {
		t.Fatalf("t.c: %v", got.Err)
	}
	return got, cparse.Parses() - before
}

// TestVerifySharesTrees pins that --verify parses each text once: the
// checker takes the campaign's tree of a member's input and hands its tree
// of the member's output to the next member, so only the last changer's
// output costs a parse the unverified campaign does not make.
func TestVerifySharesTrees(t *testing.T) {
	src := "void f(void)\n{\n\told_api(1);\n}\n"
	texts := []string{renamePatch, secondPatch}
	plain, n := runCounting(t, texts, Options{}, src)
	verified, nv := runCounting(t, texts, Options{Verify: true}, src)
	if verified.Output != plain.Output {
		t.Errorf("verified output %q != unverified %q", verified.Output, plain.Output)
	}
	// Unverified: the input, then the first member's output for the second.
	// Verified: the input, then each member's output once, in the checker.
	if n != 2 || nv != 3 {
		t.Errorf("parses: %d unverified, %d verified; want 2 and 3", n, nv)
	}

	// A member that runs on the checker's tree counts the file as parsed,
	// as it would had it parsed the text itself.
	cf, err := cparse.Parse("t.c", src, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(parseAll(t, texts), Options{Verify: true})
	st := &FileState{Name: "t.c", Src: src, Loaded: true, Parsed: cf}
	c.RunStates([]*FileState{st}, func(fr CampaignFileResult) bool {
		if fr.Err != nil || !fr.Patches[1].Changed {
			t.Errorf("second member did not run on the first's output: %+v", fr)
		}
		if !fr.Parsed {
			t.Error("Parsed = false; the second member needed a tree of the first's output")
		}
		return true
	})
	if st.ParsedInput {
		t.Error("the caller's input tree was re-parsed")
	}
}

// TestVerifyDemotedUnparseableKeepsInputTree: a member whose output does
// not parse is demoted under --verify, and the next member runs on the
// input text and the input's tree, without parsing it again.
func TestVerifyDemotedUnparseableKeepsInputTree(t *testing.T) {
	broken := "@b@\n@@\n- foo();\n+ foo(;\n"
	rename := "@r@\n@@\n- foo();\n+ bar();\n"
	fr, n := runCounting(t, []string{broken, rename}, Options{Verify: true}, "void f(void)\n{\n\tfoo();\n}\n")
	if !fr.Patches[0].Demoted || fr.Patches[0].Changed {
		t.Errorf("unparseable output not demoted: %+v", fr.Patches[0])
	}
	if want := "void f(void)\n{\n\tbar();\n}\n"; fr.Output != want {
		t.Errorf("output = %q, want %q", fr.Output, want)
	}
	// The input, the first member's output (which fails), the second's.
	if n != 3 {
		t.Errorf("parsed %d times, want 3", n)
	}
}
