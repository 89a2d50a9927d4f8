package diff

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// bigEdit returns a 4000-line text and a copy with every fourth line
// replaced: 1000 changed lines, an edit script of 2000 steps.
func bigEdit() (a, b string) {
	var sa, sb strings.Builder
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&sa, "\tx[%d] = y[%d] + %d;\n", i, i, i%7)
		if i%4 == 1 {
			fmt.Fprintf(&sb, "\tx[%d] = z[%d] * %d;\n", i, i, i%7)
		} else {
			fmt.Fprintf(&sb, "\tx[%d] = y[%d] + %d;\n", i, i, i%7)
		}
	}
	return sa.String(), sb.String()
}

// The Myers trace keeps only the live diagonals of each step, so a large
// edit costs O(D²) memory rather than O(D·(N+M)): 34 MiB here, against
// 251 MiB when every step copied the whole diagonal array. The hunks are
// pinned by digest to the output of the full-copy trace.
func TestHunksLargeEditMemory(t *testing.T) {
	a, b := bigEdit()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := Hunks(a, b)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Hunks allocated %.1f MB", float64(got)/(1<<20))
	if got > 64<<20 {
		t.Errorf("Hunks allocated %d MB on a 4000-line input with 1000 changed lines, want under 64 MB", got>>20)
	}
	if n := strings.Count(h, "\n-"); n != 1000 {
		t.Errorf("%d deleted lines, want 1000", n)
	}
	const want = "ce6cc85a9c8b7fc334fcad6ec24361e2ad0eda78f9a31133940ca90cf0508637"
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(h))); got != want {
		t.Errorf("hunks digest %s, want %s", got, want)
	}
}
