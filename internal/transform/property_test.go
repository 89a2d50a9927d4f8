package transform

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ctoken"
)

// Property: with no edits, Apply is the identity for any lexable source.
func TestQuickIdentity(t *testing.T) {
	shapes := []string{
		"int x = 1;\n",
		"void f(void){ a(); b(); }\n",
		"/* c */ #include <x.h>\nint v; // tail\n",
		"for (i = 0; i < n; ++i) { s += a[i]; }\n",
	}
	prop := func(pick uint8, reps uint8) bool {
		src := strings.Repeat(shapes[int(pick)%len(shapes)], int(reps%5)+1)
		f, err := ctoken.Lex("q.c", src, ctoken.Options{})
		if err != nil {
			return false
		}
		return NewEditSet(f).Apply() == src
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: after deleting an arbitrary token range, none of the deleted
// token texts survive at their positions and all other tokens survive.
func TestQuickDeletionSound(t *testing.T) {
	src := "alpha beta gamma delta epsilon zeta eta theta iota kappa\n"
	f, err := ctoken.Lex("q.c", src, ctoken.Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := len(f.Tokens) - 1 // exclude EOF
	prop := func(a, b uint8) bool {
		lo := int(a) % n
		hi := int(b) % n
		if lo > hi {
			lo, hi = hi, lo
		}
		e := NewEditSet(f)
		e.DeleteRange(lo, hi)
		out := e.Apply()
		words := map[string]bool{}
		for _, w := range strings.Fields(out) {
			words[w] = true
		}
		for i := 0; i < n; i++ {
			word := f.Text(i)
			if i >= lo && i <= hi && words[word] {
				return false // deleted word survived
			}
			if (i < lo || i > hi) && !words[word] {
				return false // kept word vanished
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: insertions always appear in the output, in insertion order for
// a shared anchor.
func TestQuickInsertionAppears(t *testing.T) {
	src := "one two three\n"
	f, err := ctoken.Lex("q.c", src, ctoken.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(anchor uint8, place uint8) bool {
		a := int(anchor) % 3
		e := NewEditSet(f)
		w := Where(place % 4)
		e.Insert(a, w, "INSERTED")
		out := e.Apply()
		return strings.Contains(out, "INSERTED")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: deletion plus inline replacement at the same spot yields output
// containing the replacement exactly once.
func TestQuickReplaceOnce(t *testing.T) {
	src := "keep drop keep2 drop2 keep3\n"
	f, err := ctoken.Lex("q.c", src, ctoken.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(which bool) bool {
		e := NewEditSet(f)
		idx := 1
		if which {
			idx = 3
		}
		e.DeleteRange(idx, idx)
		e.Insert(idx, Inline, "REPL")
		out := e.Apply()
		return strings.Count(out, "REPL") == 1 &&
			strings.Contains(out, "keep") && strings.Contains(out, "keep3")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
