package sempatch

import (
	"repro/internal/cparse"
	"repro/internal/infer"
)

// InferPair is one before/after demonstration for patch inference: two
// versions (Before and After) of a C/C++ source file, labelled by Name in
// diagnostics. A pair may contain several changed functions; each becomes
// one example, and verification always replays the whole file.
type InferPair = infer.Pair

// InferResult is a successfully inferred and verified patch.
type InferResult struct {
	// Patch is the compiled patch, ready for NewApplier/NewCampaign.
	Patch *Patch
	// Cocci is the rendered .cocci text.
	Cocci string
	// Metas maps each declared metavariable to its kind keyword.
	Metas map[string]string
	// Examples names the function examples the patch was inferred from.
	Examples []string
	// Variant reports which abstraction level survived verification:
	// "abstracted", "abstracted/full-context", "concrete", or
	// "concrete/full-context".
	Variant string
	// Notes carries non-fatal observations (variants the oracle rejected
	// before one succeeded).
	Notes []string
}

// InferError is a structured inference failure: the offending Pair (and,
// for cross-example irreconcilability, the Other pair), the failing Stage
// ("input", "parse", "align", "generalize", "compile", or "verify"), the
// human-readable Detail, and — when the failure is a subtree that could
// not be generalized — that Subtree's source text.
type InferError = infer.PairError

// Infer derives one semantic patch from before/after example pairs and
// verifies it in-process: the patch is compiled through the standard front
// end and applied to every pair's "before"; any output not byte-identical
// to the "after" rejects that abstraction level, and the most abstract
// variant surviving the oracle wins. On failure the error is an
// *InferError naming the offending pair and stage.
//
// ruleName names the emitted rule ("" means "inferred"); opts selects the
// dialect for both parsing the examples and the verification runs.
func Infer(ruleName string, opts Options, pairs ...InferPair) (*InferResult, error) {
	res, err := infer.Infer(pairs, infer.Options{
		RuleName: ruleName,
		Parse:    inferParseOpts(opts),
		Engine:   opts.internal(),
	})
	if err != nil {
		return nil, err
	}
	return &InferResult{
		Patch:    &Patch{p: res.Patch},
		Cocci:    res.Cocci,
		Metas:    res.Metas,
		Examples: res.Examples,
		Variant:  res.Variant,
		Notes:    res.Notes,
	}, nil
}

// MinePairs walks a git repository's first-parent history and collects up
// to limit before/after pairs from modified C/C++ files whose
// function-level segmentation shows at least one changed function body —
// input for Infer. Mining is best-effort: unparseable or unusable files
// are skipped, and an error is returned only when nothing minable exists.
func MinePairs(repoDir string, limit int, opts Options) ([]InferPair, error) {
	mined, err := infer.MineGit(repoDir, limit, inferParseOpts(opts))
	if err != nil {
		return nil, err
	}
	out := make([]InferPair, len(mined))
	for i, m := range mined {
		out[i] = m.Pair
	}
	return out, nil
}

func inferParseOpts(o Options) cparse.Options {
	return cparse.Options{CPlusPlus: o.CPlusPlus, Std: o.Std, CUDA: o.CUDA}
}
