package accomp

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestParseDirective(t *testing.T) {
	d, err := ParseDirective("parallel loop copy(a,b) collapse(2) reduction(+:s)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "parallel loop" {
		t.Errorf("name=%q", d.Name)
	}
	if len(d.Clauses) != 3 {
		t.Fatalf("clauses=%d: %+v", len(d.Clauses), d.Clauses)
	}
	if d.Clauses[0].Name != "copy" || d.Clauses[0].Arg != "a,b" {
		t.Errorf("clause 0: %+v", d.Clauses[0])
	}
	if d.Clauses[2].Arg != "+:s" {
		t.Errorf("reduction arg=%q", d.Clauses[2].Arg)
	}
}

func TestParseMultiWordHeads(t *testing.T) {
	cases := map[string]string{
		"enter data copyin(x)": "enter data",
		"exit data delete(x)":  "exit data",
		"kernels loop":         "kernels loop",
		"loop gang vector":     "loop",
		"serial":               "serial",
	}
	for body, want := range cases {
		d, err := ParseDirective(body)
		if err != nil {
			t.Errorf("%q: %v", body, err)
			continue
		}
		if d.Name != want {
			t.Errorf("%q: head=%q want %q", body, d.Name, want)
		}
	}
}

func TestParseNestedParens(t *testing.T) {
	d, err := ParseDirective("parallel if(f(a,b) > 0)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Clauses[0].Arg != "f(a,b) > 0" {
		t.Errorf("arg=%q", d.Clauses[0].Arg)
	}
	if _, err := ParseDirective("parallel if(unbalanced"); err == nil {
		t.Error("expected error for unbalanced parens")
	}
}

func TestTranslateHost(t *testing.T) {
	cases := map[string]string{
		"parallel loop":                        "parallel for",
		"parallel loop copy(a)":                "parallel for",
		"kernels copyin(x) copyout(y)":         "parallel",
		"loop vector":                          "for simd",
		"parallel loop reduction(+:s)":         "parallel for reduction(+:s)",
		"parallel num_gangs(8)":                "parallel",
		"parallel loop deviceptr(p)":           "parallel for",
		"parallel num_workers(4)":              "parallel num_threads(4)",
		"parallel loop collapse(2) private(t)": "parallel for collapse(2) private(t)",
		"atomic":                               "atomic",
	}
	for in, want := range cases {
		got, _, err := Translate(in, Host)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("%q:\n got %q\nwant %q", in, got, want)
		}
	}
}

func TestTranslateOffload(t *testing.T) {
	got, _, err := Translate("parallel loop copy(a) num_gangs(4)", Offload)
	if err != nil {
		t.Fatal(err)
	}
	want := "target teams distribute parallel for map(tofrom: a) num_teams(4)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	got, _, err = Translate("enter data copyin(buf)", Offload)
	if err != nil {
		t.Fatal(err)
	}
	if got != "target enter data map(to: buf)" {
		t.Errorf("got %q", got)
	}
}

func TestTranslateDropped(t *testing.T) {
	out, warns, err := Translate("data copy(a)", Host)
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("host-mode data should be dropped, got %q", out)
	}
	if len(warns) == 0 {
		t.Error("expected a warning")
	}
}

// Host mode drops the clause forms only device constructs accept, one
// warning each; offload mode keeps them.
func TestTranslateHostDropsDeviceClauses(t *testing.T) {
	body := "parallel loop copy(a) deviceptr(p) num_gangs(4) private(t)"
	out, warns, err := Translate(body, Host)
	if err != nil {
		t.Fatal(err)
	}
	if out != "parallel for private(t)" {
		t.Errorf("host: got %q", out)
	}
	var dropped []string
	for _, w := range warns {
		dropped = append(dropped, w.What)
	}
	if !slices.Equal(dropped, []string{"copy", "deviceptr", "num_gangs"}) {
		t.Errorf("host warnings: %+v", warns)
	}
	out, warns, err = Translate(body, Offload)
	if err != nil || len(warns) != 0 {
		t.Fatalf("offload: %v %+v", err, warns)
	}
	if want := "target teams distribute parallel for map(tofrom: a) is_device_ptr(p) num_teams(4) private(t)"; out != want {
		t.Errorf("offload: got %q want %q", out, want)
	}
}

func TestTranslateUnknownDirective(t *testing.T) {
	if _, _, err := Translate("notadirective", Host); err == nil {
		t.Error("expected error")
	}
}

func TestTranslateSeqIndependentSilent(t *testing.T) {
	out, warns, err := Translate("loop seq independent", Host)
	if err != nil {
		t.Fatal(err)
	}
	if out != "for" {
		t.Errorf("got %q", out)
	}
	if len(warns) != 0 {
		t.Errorf("seq/independent should drop silently: %+v", warns)
	}
}

// Property: every generated well-formed directive round-trips through the
// parser (String -> ParseDirective -> String).
func TestQuickDirectiveRoundtrip(t *testing.T) {
	heads := []string{"parallel", "parallel loop", "kernels", "loop", "data", "update"}
	clauses := []Clause{
		{Name: "copy", Arg: "a"}, {Name: "copyin", Arg: "b[0:n]"},
		{Name: "collapse", Arg: "2"}, {Name: "gang"}, {Name: "vector"},
		{Name: "reduction", Arg: "+:s"},
	}
	prop := func(h uint8, picks []uint8) bool {
		d := Directive{Name: heads[int(h)%len(heads)]}
		for _, p := range picks {
			d.Clauses = append(d.Clauses, clauses[int(p)%len(clauses)])
		}
		if len(d.Clauses) > 4 {
			d.Clauses = d.Clauses[:4]
		}
		parsed, err := ParseDirective(d.String())
		if err != nil {
			return false
		}
		return parsed.String() == d.String()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: translation is deterministic.
func TestQuickTranslateDeterministic(t *testing.T) {
	bodies := []string{"parallel loop copy(a)", "kernels", "loop vector", "atomic"}
	prop := func(p uint8, mode bool) bool {
		b := bodies[int(p)%len(bodies)]
		m := Host
		if mode {
			m = Offload
		}
		a1, _, e1 := Translate(b, m)
		a2, _, e2 := Translate(b, m)
		return a1 == a2 && (e1 == nil) == (e2 == nil)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
