// Package buildinfo derives a human-readable version string for the gocci
// tools from the binary's embedded build metadata, so every tool answers
// --version identically without any per-tool ldflags plumbing.
package buildinfo

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
)

// Version renders the best version the binary knows about itself: the
// module version when built from a tagged module (`go install repro@v1.2.3`),
// otherwise the VCS revision (shortened, with a +dirty marker) a
// source-tree build embeds, otherwise "devel".
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "devel"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// Setup wires the shared version conventions into a tool's flag set: it
// registers --version, and wraps the set's usage so -h output leads with
// "tool version". Call before parsing, then pass the returned pointer to
// HandleVersion after it.
func Setup(fs *flag.FlagSet, tool string) *bool {
	show := fs.Bool("version", false, "print version and exit")
	prev := fs.Usage
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "%s %s\n", tool, Version())
		if prev != nil {
			prev()
		} else {
			fs.PrintDefaults()
		}
	}
	return show
}

// HandleVersion prints "tool version" and exits 0 when --version was
// given. Call immediately after flag.Parse.
func HandleVersion(tool string, show *bool) {
	if show != nil && *show {
		fmt.Printf("%s %s\n", tool, Version())
		os.Exit(0)
	}
}
