// Command gocci-hipify is an alias for `gocci --campaign hipify`: it
// translates CUDA sources to HIP with the shipped hipify campaign and takes
// every gocci flag. It is kept only because the benchmark harness under
// bench/ builds and runs it by this name.
package main

import (
	"os"

	"repro/internal/cliutil"
)

func main() {
	os.Exit(cliutil.Main("gocci-hipify", append([]string{"--campaign", "hipify"}, os.Args[1:]...)))
}
