// Acc2omp: the paper's directive-translation use case (L11) as the shipped
// acc2omp campaigns. A pragmainfo metavariable captures each OpenACC
// directive body, a script rule runs the directive/clause translator, and
// the final rule swaps the pragma — all at the AST level, immune to line
// continuations and spacing — once for host threading and once for device
// offloading.
package main

import (
	"fmt"
	"log"

	sempatch "repro"
	"repro/internal/codegen"
	"repro/internal/hpc"
)

func main() {
	src := codegen.OpenACC(codegen.Config{Funcs: 3, StmtsPerFunc: 1, Seed: 11})
	for _, name := range []string{"acc2omp", "acc2omp-offload"} {
		c, _ := hpc.ByName(name)
		ca, err := c.Build(sempatch.Options{})
		if err != nil {
			log.Fatal(err)
		}
		_, err = ca.ApplyAllFunc([]sempatch.File{{Name: "app.c", Src: src}}, func(fr sempatch.CampaignFileResult) error {
			if fr.Err != nil {
				return fr.Err
			}
			fmt.Printf("=== %s ===\n%s", c.Title, fr.Diff)
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
	}
}
