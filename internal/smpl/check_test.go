package smpl

import (
	"strings"
	"testing"
)

const starPatch = `// gocci:check id=unchecked-call severity=error msg="result of f(E) is ignored"
@r@
expression E;
@@
* f(E);
`

func TestStarLinesParse(t *testing.T) {
	p, err := ParsePatch("star.cocci", starPatch)
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.IsCheck() {
		t.Fatalf("star rule not recognized as check rule")
	}
	if !p.HasChecks() {
		t.Fatalf("patch with star rule reports HasChecks == false")
	}
	pat := r.Pattern
	if !pat.HasStar || pat.HasTransform {
		t.Fatalf("HasStar=%v HasTransform=%v, want true/false", pat.HasStar, pat.HasTransform)
	}
	if got := pat.FirstStarToken(); got < 0 {
		t.Fatalf("FirstStarToken = %d, want a starred token", got)
	} else if text := pat.Toks.Text(got); text != "f" {
		t.Fatalf("first starred token = %q, want \"f\"", text)
	}
	if r.Check == nil || r.Check.ID != "unchecked-call" || r.Check.Severity != "error" {
		t.Fatalf("check metadata not attached: %+v", r.Check)
	}
	if want := "result of f(E) is ignored"; r.Check.Msg != want {
		t.Fatalf("msg = %q, want %q", r.Check.Msg, want)
	}
}

func TestStarMixedWithTransformIsError(t *testing.T) {
	_, err := ParsePatch("mix.cocci", "@r@\nexpression E;\n@@\n* f(E);\n- g(E);\n+ h(E);\n")
	if err == nil || !strings.Contains(err.Error(), "mixes") {
		t.Fatalf("mixing * with -/+ did not error usefully: %v", err)
	}
}

func TestCheckHeaderErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"// gocci:check severity=error\n@r@\n@@\nf(x);\n", "missing id"},
		{"// gocci:check id=a severity=fatal\n@r@\n@@\nf(x);\n", "not error, warning, or info"},
		{"// gocci:check id=a bogus=1\n@r@\n@@\nf(x);\n", "unknown gocci:check field"},
		{"// gocci:check id=a\n", "no rule following"},
		{"// gocci:check id=a\n// gocci:check id=b\n@r@\n@@\nf(x);\n", "duplicate gocci:check"},
		{"// gocci:check id=a\n@script:python p@\nx << r.i;\n@@\npass\n", "must precede a match rule"},
		{"// gocci:check id=a\n@r@\n@@\n- f(x);\n+ g(x);\n", "check rules are match-only"},
		{"// gocci:check id=\"has spaces\"\n@r@\n@@\nf(x);\n", "may only contain"},
	}
	for _, c := range cases {
		_, err := ParsePatch("bad.cocci", c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("patch %q: error %v, want substring %q", c.src, err, c.want)
		}
	}
}

func TestCheckHeaderDefaultsAndContextRule(t *testing.T) {
	// A check rule needs no star lines: plain context bodies report too.
	p, err := ParsePatch("ctx.cocci", "// gocci:check id=ctx-check msg=\"saw it\"\n@r@\nexpression E;\n@@\nf(E)\n")
	if err != nil {
		t.Fatal(err)
	}
	r := p.Rules[0]
	if !r.IsCheck() || r.Check.Severity != "warning" {
		t.Fatalf("context check rule: IsCheck=%v severity=%q, want true/warning", r.IsCheck(), r.Check.Severity)
	}
}

func TestStarRenderFixpoint(t *testing.T) {
	for _, src := range []string{
		starPatch,
		"// gocci:check id=two severity=info msg=\"quoted \\\"msg\\\" here\"\n@a@\n@@\n* g(1);\n",
		"@plain@\n@@\n* lone_star(x);\n",
	} {
		p, err := ParsePatch("fix.cocci", src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		text := Render(p)
		p2, err := ParsePatch("fix.cocci", text)
		if err != nil {
			t.Fatalf("rendered patch does not re-parse: %v\n%s", err, text)
		}
		if again := Render(p2); again != text {
			t.Fatalf("render not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
		if !p2.HasChecks() {
			t.Fatalf("re-parsed patch lost its check rules:\n%s", text)
		}
	}
}
