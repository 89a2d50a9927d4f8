// Hipify: the paper's CUDA-to-HIP use cases (L8, L9, L10) as the shipped
// hipify campaign — function, type and enumerator dictionaries plus
// triple-chevron kernel-launch rewriting — over a generated CUDA mini-app,
// followed by an adversarial snippet where every CUDA name is a local
// variable, a string or a comment, which the campaign leaves unchanged.
package main

import (
	"fmt"
	"log"

	sempatch "repro"
	"repro/internal/codegen"
	"repro/internal/hpc"
)

func main() {
	c, _ := hpc.ByName("hipify")
	ca, err := c.Build(sempatch.Options{})
	if err != nil {
		log.Fatal(err)
	}
	adversarial := `void audit(void) {
	int cudaMalloc = count_allocs();        // local variable, not the API
	log_msg("direct cudaMalloc calls are forbidden");
	record(cudaMalloc);
}
`
	files := []sempatch.File{
		{Name: "app.cu", Src: codegen.CUDA(codegen.Config{Funcs: 1, StmtsPerFunc: 1, Seed: 3})},
		{Name: "audit.c", Src: adversarial},
	}
	_, err = ca.ApplyAllFunc(files, func(fr sempatch.CampaignFileResult) error {
		if fr.Err != nil {
			return fr.Err
		}
		if fr.Diff == "" {
			fmt.Printf("=== %s: unchanged ===\n", fr.Name)
			return nil
		}
		fmt.Printf("=== %s ===\n%s", fr.Name, fr.Diff)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
}
