// Check mode: `gocci --check` runs the patch set match-only and reports
// findings instead of diffs. Formats: compiler-style text (default), NDJSON
// (byte-identical to the gocci-serve stream), or SARIF 2.1.0 for code
// scanning upload. `--baseline-write` records the current findings keyed by
// function identity; a later `--baseline` run suppresses exactly those, so
// the gate only fires on new findings even as unrelated code moves around.

package cliutil

import (
	"fmt"
	"os"

	sempatch "repro"
	"repro/internal/analysis"
	"repro/internal/buildinfo"
)

// checkConfig carries the --check flag family after validation.
type checkConfig struct {
	enabled       bool
	format        string // text | json | sarif
	baselinePath  string
	baselineWrite bool
	failOn        string // error | warning | info
}

// validate rejects unusable flag combinations; any error is a usage error
// (exit 2).
func (c *checkConfig) validate(inPlace bool) error {
	if !c.enabled {
		if c.baselinePath != "" || c.baselineWrite {
			return fmt.Errorf("--baseline requires --check")
		}
		return nil
	}
	if inPlace {
		return fmt.Errorf("--check is match-only; it cannot be combined with --in-place")
	}
	switch c.format {
	case "text", "json", "sarif":
	default:
		return fmt.Errorf("--format must be text, json, or sarif (got %q)", c.format)
	}
	if analysis.Rank(c.failOn) == 0 {
		return fmt.Errorf("--fail-on must be error, warning, or info (got %q)", c.failOn)
	}
	if c.baselineWrite && c.baselinePath == "" {
		return fmt.Errorf("--baseline-write requires --baseline PATH")
	}
	return nil
}

// warnIfNoChecks tells the user when --check ran a patch set with no check
// rules: the run is legal (zero findings) but almost certainly a mistake.
func (c *command) warnIfNoChecks(patches []*sempatch.Patch) {
	for _, p := range patches {
		if p.HasChecks() {
			return
		}
	}
	c.warnf("warning: --check with no check rules in the patch set; nothing can be reported")
}

// finishCheck reports the run's findings and returns the process exit code:
// 1 when any finding at or above --fail-on survives the baseline, 0 when
// clean. Processing errors already forced exit 1 via c.hadError.
func (c *command) finishCheck(cfg checkConfig) int {
	findings := c.findings
	analysis.Sort(findings)

	if cfg.baselineWrite {
		bl := analysis.NewBaseline(findings)
		if err := bl.Write(cfg.baselinePath); err != nil {
			return c.fail(err)
		}
		c.warnf("baseline: %d findings recorded to %s", len(findings), cfg.baselinePath)
		if c.hadError {
			return 1
		}
		return 0
	}

	suppressed := 0
	if cfg.baselinePath != "" {
		bl, err := analysis.LoadBaseline(cfg.baselinePath)
		if err != nil {
			return c.fail(err)
		}
		kept := bl.Filter(findings)
		suppressed = len(findings) - len(kept)
		findings = kept
	}

	var err error
	switch cfg.format {
	case "json":
		err = analysis.WriteNDJSON(os.Stdout, findings)
	case "sarif":
		err = analysis.WriteSarif(os.Stdout, buildinfo.Version(), findings)
	default:
		err = analysis.WriteText(os.Stdout, findings)
	}
	if err != nil {
		return c.fail(err)
	}

	// The parsed count is the warm-cache signal: a repeat sweep over an
	// unchanged tree replays every finding and reports "parsed: 0".
	c.warnf("parsed: %d", c.cst.Parsed)
	by := analysis.CountBySeverity(findings)
	fmt.Fprintf(os.Stderr, "%s: %d findings (%d error, %d warning, %d info)",
		c.tool, len(findings), by[analysis.SeverityError], by[analysis.SeverityWarning], by[analysis.SeverityInfo])
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, ", %d suppressed by baseline", suppressed)
	}
	fmt.Fprintln(os.Stderr)

	if c.hadError {
		return 1
	}
	if len(findings) > 0 && analysis.MaxRank(findings) >= analysis.Rank(cfg.failOn) {
		return 1
	}
	return 0
}
