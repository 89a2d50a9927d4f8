package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// matchOutcomes runs a traced engine over files and returns the result and,
// per rule, whether its match span carries the gate's skip outcome.
func matchOutcomes(t *testing.T, patchText string, files []SourceFile) (*Result, map[string]bool) {
	t.Helper()
	tr := obs.New()
	eng := New(mustPatch(t, patchText), Options{})
	eng.SetTrace(tr.Track("engine"))
	res, err := eng.Run(files)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Args struct {
				Rule    string `json:"rule"`
				Outcome string `json:"outcome"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	skipped := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == obs.StageMatch {
			skipped[ev.Args.Rule] = ev.Args.Outcome == obs.OutcomeSkip
		}
	}
	return res, skipped
}

// TestRuleGate pins the per-rule required-atom gate's semantics: it is
// asked against each file's current text (so words an earlier rule
// inserted count), it leaves dependency evaluation to the engine, it errs
// on the side of matching, and it is decided per file.
func TestRuleGate(t *testing.T) {
	cases := []struct {
		name    string
		patch   string
		files   []SourceFile
		want    map[string][]string // file -> substrings of its output
		wantNot map[string][]string
		same    []string        // files whose output equals their input
		count   map[string]int  // rule -> MatchCount
		skipped map[string]bool // rule -> match span has the skip outcome
	}{
		{
			name: "inserted atom reaches a later rule",
			patch: `@r1@
@@
- foo();
+ bar();

@r2@
@@
- bar();
+ baz();
`,
			files:   []SourceFile{{Name: "t.c", Src: "void f(void){ foo(); }\n"}},
			want:    map[string][]string{"t.c": {"baz();"}},
			wantNot: map[string][]string{"t.c": {"foo();", "bar();"}},
			count:   map[string]int{"r1": 1, "r2": 1},
			skipped: map[string]bool{"r1": false, "r2": false},
		},
		{
			// r0 asks about bar before r1 inserts it: a stale memo would
			// keep answering "absent" and gate r2 out.
			name: "memo cleared on reparse",
			patch: `@r0@
@@
- bar();

@r1@
@@
- foo();
+ bar();

@r2@
@@
- bar();
+ baz();
`,
			files:   []SourceFile{{Name: "t.c", Src: "void f(void){ foo(); }\n"}},
			want:    map[string][]string{"t.c": {"baz();"}},
			wantNot: map[string][]string{"t.c": {"bar();"}},
			count:   map[string]int{"r0": 0, "r1": 1, "r2": 1},
			skipped: map[string]bool{"r0": true, "r1": false, "r2": false},
		},
		{
			name: "negated dependency on a gated-out rule",
			patch: `@r1@
@@
- absent_call();

@r2 depends on !r1@
@@
- keep();
+ kept();
`,
			files:   []SourceFile{{Name: "t.c", Src: "void f(void){ keep(); }\n"}},
			want:    map[string][]string{"t.c": {"kept();"}},
			count:   map[string]int{"r1": 0, "r2": 1},
			skipped: map[string]bool{"r1": true, "r2": false},
		},
		{
			name: "atom only in a comment passes the gate",
			patch: `@r@
@@
- foo();
+ bar();
`,
			files:   []SourceFile{{Name: "t.c", Src: "/* foo(); */\nvoid f(void){ other(); }\n"}},
			same:    []string{"t.c"},
			count:   map[string]int{"r": 0},
			skipped: map[string]bool{"r": false},
		},
		{
			name: "one disjunction branch is enough",
			patch: `@r@
expression E;
@@
- \( first_variant(E) \| second_variant(E) \)
`,
			files:   []SourceFile{{Name: "t.c", Src: "void f(void){ second_variant(1); }\n"}},
			wantNot: map[string][]string{"t.c": {"second_variant"}},
			count:   map[string]int{"r": 1},
			skipped: map[string]bool{"r": false},
		},
		{
			name: "decided per file",
			patch: `@r@
expression E;
@@
- foo(E);
+ bar(E);
`,
			files: []SourceFile{
				{Name: "a.c", Src: "void f(void){ other(1); }\n"},
				{Name: "b.c", Src: "void g(void){ foo(1); foo(2); }\n"},
			},
			want:    map[string][]string{"b.c": {"bar(1);", "bar(2);"}},
			wantNot: map[string][]string{"b.c": {"foo"}},
			same:    []string{"a.c"},
			count:   map[string]int{"r": 2},
			skipped: map[string]bool{"r": false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, skipped := matchOutcomes(t, tc.patch, tc.files)
			for name, subs := range tc.want {
				for _, s := range subs {
					if !strings.Contains(res.Outputs[name], s) {
						t.Errorf("%s: missing %q in output:\n%s", name, s, res.Outputs[name])
					}
				}
			}
			for name, subs := range tc.wantNot {
				for _, s := range subs {
					if strings.Contains(res.Outputs[name], s) {
						t.Errorf("%s: unexpected %q in output:\n%s", name, s, res.Outputs[name])
					}
				}
			}
			for _, name := range tc.same {
				if res.Diffs[name] != "" {
					t.Errorf("%s changed:\n%s", name, res.Diffs[name])
				}
			}
			for rule, n := range tc.count {
				if res.MatchCount[rule] != n {
					t.Errorf("MatchCount[%s] = %d, want %d", rule, res.MatchCount[rule], n)
				}
				if res.Matched[rule] != (n > 0) {
					t.Errorf("Matched[%s] = %v, want %v", rule, res.Matched[rule], n > 0)
				}
			}
			for rule, want := range tc.skipped {
				got, ok := skipped[rule]
				if !ok {
					t.Errorf("rule %s has no match span", rule)
				} else if got != want {
					t.Errorf("rule %s: skip outcome = %v, want %v", rule, got, want)
				}
			}
		})
	}
}
