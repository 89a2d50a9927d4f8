package hpc

// Golden round-trip: every generated campaign member patch must survive the
// SmPL renderer's parse→print→parse fixpoint, and a campaign rebuilt from
// the rendered texts must transform the fixture corpus byte-identically to
// the original.

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	sempatch "repro"
	"repro/internal/codegen"
	"repro/internal/smpl"
)

func TestCampaignPatchesRenderRoundTrip(t *testing.T) {
	for _, c := range Campaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			rendered := *c
			rendered.members = nil
			for _, m := range c.members {
				p, err := smpl.ParsePatch(m.name, m.text)
				if err != nil {
					t.Fatalf("%s does not parse: %v", m.name, err)
				}
				text := smpl.Render(p)
				p2, err := smpl.ParsePatch(m.name, text)
				if err != nil {
					t.Fatalf("%s rendered does not re-parse: %v\nrendered:\n%s", m.name, err, text)
				}
				if again := smpl.Render(p2); again != text {
					t.Fatalf("%s render is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", m.name, text, again)
				}
				rendered.members = append(rendered.members, member{name: m.name, text: text})
			}

			// Semantic equivalence on a generated fixture: the campaign
			// rebuilt from rendered member texts must produce the same bytes
			// — or, for the match-only checks campaign, the same findings.
			var name, src string
			switch c.Name {
			case "hipify":
				// Every type position and launch form of the typedef and
				// launch-disjunction members.
				b, err := os.ReadFile(filepath.Join("testdata", "hipify", "types.cu"))
				if err != nil {
					t.Fatal(err)
				}
				name, src = "rt.cu", string(b)
			case "hpc-checks":
				origF := checkFindings(t, c, "rt.cu", checkSrc)
				renF := checkFindings(t, &rendered, "rt.cu", checkSrc)
				if len(origF) == 0 {
					t.Fatalf("%s: fixture exercises nothing", c.Name)
				}
				if len(renF) != len(origF) {
					t.Fatalf("rendered campaign diverges: %d findings, want %d", len(renF), len(origF))
				}
				for i := range origF {
					if !reflect.DeepEqual(renF[i], origF[i]) {
						t.Errorf("finding %d diverges:\noriginal: %+v\nrendered: %+v", i, origF[i], renF[i])
					}
				}
				return
			default:
				name, src = "rt.c", codegen.OpenACC(codegen.Config{Funcs: 3, StmtsPerFunc: 2, Seed: 20250326})
			}
			origOut, _ := applyOne(t, c, sempatch.Options{}, name, src)
			renOut, _ := applyOne(t, &rendered, sempatch.Options{}, name, src)
			if origOut == src {
				t.Fatalf("%s: fixture exercises nothing", c.Name)
			}
			if renOut != origOut {
				t.Errorf("rendered campaign diverges:\n--- original\n%s\n--- rendered\n%s", origOut, renOut)
			}
		})
	}
}
