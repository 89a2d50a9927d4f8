package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
)

// pinnedOutputs is the digest of what every shipped patch makes of every
// repository input, and the core.OutputVersion it was taken under. The
// result cache keys on OutputVersion, so a change to what the engine
// prints must bump it, or a cache written before the change keeps
// replaying the old output.
var pinnedOutputs = struct{ version, digest string }{
	version: "2",
	digest:  "4a6a99a7230f27cc941852e27cfef4e8bed9824231eb327f62a460e2bf8250b3",
}

// outputsDigest runs every shipped patch over every repository input (the
// matrix TestRuleGateSound sweeps) and hashes what a cached record keeps:
// the output text, the per-rule match counts and the findings, or the
// error.
func outputsDigest(t *testing.T) string {
	t.Helper()
	patches, inputs := shippedCorpus(t)
	h := sha256.New()
	for _, p := range patches {
		c := core.Compile(p)
		for _, in := range inputs {
			fmt.Fprintf(h, "%s\x00%s\x00", p.Name, in.name)
			res, err := core.NewCompiled(c, in.engineOptions()).RunParsed(
				[]core.ParsedFile{{Name: in.name, Src: in.src, File: in.file}})
			if err != nil {
				fmt.Fprintf(h, "error\x00%v\x00", err)
				continue
			}
			out := res.Outputs[in.name]
			fmt.Fprintf(h, "%d\x00%s\x00", len(out), out)
			rules := make([]string, 0, len(res.MatchCount))
			for r := range res.MatchCount {
				rules = append(rules, r)
			}
			sort.Strings(rules)
			for _, r := range rules {
				fmt.Fprintf(h, "%s=%d\x00", r, res.MatchCount[r])
			}
			findings, err := json.Marshal(res.Findings)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(findings)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestOutputDigestTripwire fails when what the engine prints changes while
// core.OutputVersion does not: the bump the result cache needs would be
// forgotten. After an intended output change, bump OutputVersion and pin
// the new digest with it.
func TestOutputDigestTripwire(t *testing.T) {
	got := outputsDigest(t)
	switch {
	case got == pinnedOutputs.digest && core.OutputVersion == pinnedOutputs.version:
	case core.OutputVersion == pinnedOutputs.version:
		t.Errorf("engine outputs changed (digest %s, pinned %s) but core.OutputVersion is still %q: "+
			"bump it so cached results miss, then pin the new digest with the new version",
			got, pinnedOutputs.digest, core.OutputVersion)
	default:
		t.Errorf("core.OutputVersion is %q but the pin says %q: pin {version: %q, digest: %q}",
			core.OutputVersion, pinnedOutputs.version, core.OutputVersion, got)
	}
}
