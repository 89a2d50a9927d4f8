package diff

// Round-trip golden tests against patch(1): the unified diffs this package
// emits must be applicable by the POSIX patch tool and reproduce the target
// byte-for-byte — including files without a trailing newline and creations
// from or deletions to empty files.

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// roundTripCases cover the edge cases of the format: empty sides, missing
// final newlines, and several hunks.
var roundTripCases = []struct {
	name, a, b string
}{
	{"replace", "one\ntwo\nthree\n", "one\nTWO\nthree\n"},
	{"insert", "a\nc\n", "a\nb\nc\n"},
	{"delete", "a\nb\nc\n", "a\nc\n"},
	{"create from empty", "", "fresh\nlines\n"},
	{"delete to empty", "gone\nsoon\n", ""},
	{"b loses final newline", "one\ntwo\n", "one\ntwo"},
	{"a lacked final newline", "one\ntwo", "one\ntwo\n"},
	{"both lack newline", "one\nold", "one\nnew"},
	{"change above unterminated tail", "x\nm1\nm2\nm3\ntail", "y\nm1\nm2\nm3\ntail"},
	{"multi hunk", "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n",
		"1\nTWO\n3\n4\n5\n6\n7\n8\n9\n10\nELEVEN\n12\n"},
}

func TestPatchRoundTrip(t *testing.T) {
	if _, err := exec.LookPath("patch"); err != nil {
		t.Skip("patch(1) not installed")
	}
	for _, c := range roundTripCases {
		t.Run(c.name, func(t *testing.T) {
			d := Unified("work.txt", "work.txt", c.a, c.b)
			if d == "" {
				t.Fatal("no diff produced")
			}
			dir := t.TempDir()
			work := filepath.Join(dir, "work.txt")
			if err := os.WriteFile(work, []byte(c.a), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command("patch", "--posix", "work.txt")
			cmd.Dir = dir
			cmd.Stdin = nil
			stdin, err := cmd.StdinPipe()
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				stdin.Write([]byte(d))
				stdin.Close()
			}()
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("patch(1) rejected our diff: %v\n%s\ndiff:\n%s", err, out, d)
			}
			got, err := os.ReadFile(work)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != c.b {
				t.Errorf("patched result differs:\ngot  %q\nwant %q\ndiff:\n%s", got, c.b, d)
			}
		})
	}
}

// TestHeaderHunksSplit pins Unified as Header + Hunks, the split a result
// record relies on to replay a diff under the current file name.
func TestHeaderHunksSplit(t *testing.T) {
	for _, c := range roundTripCases {
		if got, want := Header("a/x.c", "b/x.c")+Hunks(c.a, c.b), Unified("a/x.c", "b/x.c", c.a, c.b); got != want {
			t.Errorf("%s: Header+Hunks = %q, Unified = %q", c.name, got, want)
		}
		for _, x := range []string{c.a, c.b} {
			if h := Hunks(x, x); h != "" {
				t.Errorf("%s: Hunks(x, x) = %q, want \"\"", c.name, h)
			}
		}
	}
}
