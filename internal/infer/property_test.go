package infer

// Property test: for a family of seeded random fixture functions with one
// random expression-level perturbation, inference must (a) succeed with the
// engine-as-oracle round trip, (b) emit a patch whose rendered .cocci
// survives the parse→print→parse fixpoint, and (c) generalize to a renamed
// copy of the fixture — the same edit under different function, variable,
// and parameter names.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/smpl"
)

// fixture builds one function from the seeded rng, parameterized by the
// names it uses, and returns the before and after sources. The perturbation
// touches exactly one expression, chosen by the rng.
func fixture(rng *rand.Rand, fn, v, p string) (before, after string) {
	callees := []string{"stage_a", "stage_b", "stage_c", "stage_d", "stage_e"}
	rng.Shuffle(len(callees), func(i, j int) { callees[i], callees[j] = callees[j], callees[i] })
	n := 3 + rng.Intn(3)
	mid := make([]string, n)
	for i := 0; i < n; i++ {
		mid[i] = fmt.Sprintf("    %s(%s, %d);\n", callees[i], v, rng.Intn(100))
	}
	target := rng.Intn(n)
	bMid := strings.Join(mid, "")
	var aStmt string
	switch rng.Intn(3) {
	case 0: // rename the callee
		aStmt = strings.Replace(mid[target], callees[target]+"(", callees[target]+"_v2(", 1)
	case 1: // append an argument
		aStmt = strings.Replace(mid[target], ");", ", 0);", 1)
	default: // wrap the value argument
		aStmt = strings.Replace(mid[target], "("+v+",", "(clamp("+v+"),", 1)
	}
	aMid := strings.Join(append(append(append([]string{}, mid[:target]...), aStmt), mid[target+1:]...), "")

	head := fmt.Sprintf("int %s(int %s) {\n    int %s = init(%s);\n", fn, p, v, p)
	tail := fmt.Sprintf("    return %s;\n}\n", v)
	return head + bMid + tail, head + aMid + tail
}

func TestInferPropertyRandomPerturbations(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			before, after := fixture(rand.New(rand.NewSource(seed)), "f", "acc", "x")
			res, err := Infer([]Pair{{Name: "p", Before: before, After: after}}, Options{})
			if err != nil {
				t.Fatalf("inference failed:\nbefore:\n%s\nafter:\n%s\nerror: %v", before, after, err)
			}

			// (b) The emitted .cocci survives the renderer fixpoint.
			p2, perr := smpl.ParsePatch("rt.cocci", res.Cocci)
			if perr != nil {
				t.Fatalf("inferred .cocci does not re-parse: %v\n%s", perr, res.Cocci)
			}
			if again := smpl.Render(p2); again != res.Cocci {
				t.Fatalf("inferred .cocci is not a render fixpoint:\nfirst:\n%s\nsecond:\n%s", res.Cocci, again)
			}

			// (c) The patch generalizes to the same edit under fresh names.
			// The renamed copy is generated from the identical rng stream, so
			// it differs from the original only in the identifiers.
			rBefore, rAfter := fixture(rand.New(rand.NewSource(seed)), "g_prop", "val", "count")
			var got string
			batch.NewCampaign([]*smpl.Patch{res.Patch}, batch.Options{}).Run(
				[]core.SourceFile{{Name: "r.c", Src: rBefore}},
				func(fr batch.CampaignFileResult) bool {
					if fr.Err != nil {
						t.Fatalf("apply to renamed copy: %v", fr.Err)
					}
					got = fr.Output
					return true
				})
			if got != rAfter {
				t.Errorf("patch (variant %s) does not generalize to the renamed copy:\npatch:\n%s\ngot:\n%s\nwant:\n%s",
					res.Variant, res.Cocci, got, rAfter)
			}
		})
	}
}
