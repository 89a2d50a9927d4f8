// Package verify is the post-transform safety checker behind --verify: it
// re-examines a (before, after) pair produced by a semantic patch run and
// reports structured warnings for edits whose textual plausibility hides a
// semantic hazard. Following Cohen's mechanically-proved renaming
// (arXiv:1607.02226), the checks target the failure modes of the paper's
// HPC transformations specifically:
//
//   - capture avoidance: an identifier or type name introduced into a
//     function body where a local declaration of the same name already
//     existed now binds to the local, not the intended API symbol.
//   - def-use preservation: a declaration was rewritten away while uses of
//     the declared name survive.
//   - pragma round-trip: every OpenMP pragma that replaced an OpenACC one
//     must re-derive from the removed directive under the accomp
//     translation tables; clause drops the translator reported surface as
//     advisory warnings.
//   - output well-formedness: the transformed text must still parse under
//     the run's dialect.
//
// A warning with Unsafe set demotes the edit when batch.Options.Verify is
// on: the file's output reverts to its input, the warning rides the result,
// and the outcome (including the demotion) is cached under a verify-keyed
// fingerprint so warm runs replay the same decision.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/accomp"
	"repro/internal/cast"
	"repro/internal/cparse"
)

// Version fingerprints the checker's logic. It is folded into result-cache
// keys when verify mode is on, so cached verify decisions are invalidated
// when the checks themselves change. Bump on any behavioral change here.
const Version = "2"

// Warning is one finding about a transformed file.
type Warning struct {
	// Code identifies the check: "capture", "def-use", "pragma-roundtrip",
	// "pragma-clause", or "parse".
	Code string
	// Func is the enclosing function's name, "" for file-scope findings.
	Func string
	// Message describes the finding.
	Message string
	// Unsafe marks findings that demote the edit under verify mode;
	// advisory findings (clause drops) ride along without demoting.
	Unsafe bool
}

func (w Warning) String() string {
	if w.Func != "" {
		return fmt.Sprintf("[%s] %s: %s", w.Code, w.Func, w.Message)
	}
	return fmt.Sprintf("[%s] %s", w.Code, w.Message)
}

// Unsafe reports whether any warning in the list demotes the edit.
func Unsafe(warns []Warning) bool {
	for _, w := range warns {
		if w.Unsafe {
			return true
		}
	}
	return false
}

// Options selects the dialect both sides are parsed under — the same
// dialect the transforming run used.
type Options struct {
	CPlusPlus bool
	Std       int
	CUDA      bool
}

// Check verifies one transformed file. before must be the exact input the
// patch run consumed and after its output; a nil or empty slice means every
// check passed. Check never modifies anything — demotion is the caller's
// move.
func Check(name, before, after string, opts Options) []Warning {
	warns, _ := CheckTrees(name, before, after, nil, opts)
	return warns
}

// CheckTrees is Check for a caller that already holds before's parse tree
// fb (nil: parse it here) and wants after's: it returns the warnings and
// the tree it parsed for after, nil when after does not parse. The trees
// are only read, so a campaign can hand fb on from the member that made it
// and the after tree on to the next member.
func CheckTrees(name, before, after string, fb *cast.File, opts Options) ([]Warning, *cast.File) {
	popts := cparse.Options{CPlusPlus: opts.CPlusPlus, Std: opts.Std, CUDA: opts.CUDA}
	fa, err := cparse.Parse(name, after, popts)
	if err != nil {
		return []Warning{{
			Code:   "parse",
			Unsafe: true,
			Message: fmt.Sprintf("transformed output no longer parses: %v",
				err),
		}}, nil
	}
	if fb == nil {
		if fb, err = cparse.Parse(name, before, popts); err != nil {
			// The transforming run parsed this input, so in practice this
			// is unreachable; without a baseline there is nothing to
			// compare.
			return nil, fa
		}
	}
	var warns []Warning
	warns = append(warns, checkFunctions(fb, fa)...)
	warns = append(warns, checkPragmas(before, after)...)
	return warns, fa
}

// fnInfo summarizes one function definition for the scope checks.
type fnInfo struct {
	locals map[string]bool // parameter and local-declaration names
	counts map[string]int  // identifier and type-name occurrences in the body
}

// functions indexes a file's function definitions by name. A redefinition
// (behind #ifdef arms the parser keeps) folds into one entry; the checks
// only compare aggregate counts, so folding is conservative.
func functions(f *cast.File) map[string]*fnInfo {
	out := map[string]*fnInfo{}
	for _, d := range f.Decls {
		fd, ok := d.(*cast.FuncDef)
		if !ok || fd.Body == nil || fd.Name == nil {
			continue
		}
		info := out[fd.Name.Name]
		if info == nil {
			info = &fnInfo{locals: map[string]bool{}, counts: map[string]int{}}
			out[fd.Name.Name] = info
		}
		if fd.Params != nil {
			for _, p := range fd.Params.Params {
				if p.Name != nil {
					info.locals[p.Name.Name] = true
				}
			}
		}
		cast.Walk(fd.Body, func(n cast.Node) bool {
			switch x := n.(type) {
			case *cast.VarDecl:
				for _, it := range x.Items {
					if it.Name != nil {
						info.locals[it.Name.Name] = true
					}
				}
			case *cast.Ident:
				info.counts[x.Name]++
			case *cast.Type:
				// A type base is a reference too: a renamed type can be
				// captured by a local of the new name.
				info.counts[x.Base]++
			}
			return true
		})
	}
	return out
}

// checkFunctions runs the capture-avoidance and def-use checks over every
// function present on both sides. Functions that appear or vanish entirely
// (the patch renamed or removed the definition) have no stable baseline and
// are skipped.
func checkFunctions(before, after *cast.File) []Warning {
	fb, fa := functions(before), functions(after)
	var names []string
	for name := range fa {
		if fb[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var warns []Warning
	for _, name := range names {
		b, a := fb[name], fa[name]
		// Capture avoidance: a reference introduced by the patch that lands
		// in a function already declaring that name locally binds to the
		// local, not the intended (typically API) symbol.
		var ids []string
		for id := range a.counts {
			if a.counts[id] > b.counts[id] && b.locals[id] {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			warns = append(warns, Warning{
				Code: "capture", Func: name, Unsafe: true,
				Message: fmt.Sprintf("introduced reference to %q is captured by an existing local declaration", id),
			})
		}
		// Def-use preservation: a declaration the patch removed while uses
		// of the name survive leaves the function referring to nothing.
		ids = ids[:0]
		for id := range b.locals {
			if !a.locals[id] && a.counts[id] > 0 {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			warns = append(warns, Warning{
				Code: "def-use", Func: name, Unsafe: true,
				Message: fmt.Sprintf("declaration of %q was removed but %d use(s) remain", id, fa[name].counts[id]),
			})
		}
	}
	return warns
}

// pragmas scans a source line-wise for pragma bodies of the given family
// ("acc" or "omp"), in order of appearance.
func pragmas(src, family string) []string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		trimmed := strings.TrimSpace(line)
		rest, ok := strings.CutPrefix(trimmed, "#pragma")
		if !ok {
			continue
		}
		rest = strings.TrimSpace(rest)
		body, ok := strings.CutPrefix(rest, family)
		if !ok || (body != "" && body[0] != ' ' && body[0] != '\t') {
			continue
		}
		out = append(out, strings.TrimSpace(body))
	}
	return out
}

// checkPragmas round-trips directive translations: each OpenACC pragma the
// patch consumed is paired, in order, with the OpenMP pragma that appeared,
// and the pair must agree with the accomp translation tables under at least
// one supported mode. Clause warnings the translator reports on the way are
// surfaced as advisory findings.
func checkPragmas(before, after string) []Warning {
	accB, accA := pragmas(before, "acc"), pragmas(after, "acc")
	ompB, ompA := pragmas(before, "omp"), pragmas(after, "omp")

	// Removed acc bodies and added omp bodies, in order. Multiset removal
	// keeps pragmas untouched by the patch out of the pairing.
	removed := subtract(accB, accA)
	added := subtract(ompA, ompB)
	if len(removed) == 0 && len(added) == 0 {
		return nil
	}
	var warns []Warning
	if len(removed) != len(added) {
		warns = append(warns, Warning{
			Code: "pragma-roundtrip", Unsafe: true,
			Message: fmt.Sprintf("%d OpenACC pragma(s) removed but %d OpenMP pragma(s) added; translation is not one-to-one", len(removed), len(added)),
		})
	}
	n := min(len(removed), len(added))
	for i := 0; i < n; i++ {
		omp, accWarns, matched := retranslate(removed[i], added[i])
		if !matched {
			warns = append(warns, Warning{
				Code: "pragma-roundtrip", Unsafe: true,
				Message: fmt.Sprintf("#pragma omp %s does not round-trip from #pragma acc %s (expected %q)", added[i], removed[i], omp),
			})
			continue
		}
		for _, aw := range accWarns {
			warns = append(warns, Warning{
				Code:    "pragma-clause",
				Message: fmt.Sprintf("#pragma acc %s: %s: %s", removed[i], aw.What, aw.Why),
			})
		}
	}
	return warns
}

// retranslate checks one removed-acc/added-omp pair against the translator
// under each mode, returning the host-mode expectation, the matching mode's
// clause warnings, and whether any mode reproduced the emitted pragma.
func retranslate(acc, omp string) (string, []accomp.Warning, bool) {
	var hostOmp string
	for i, mode := range []accomp.Mode{accomp.Host, accomp.Offload} {
		got, ws, err := accomp.Translate(acc, mode)
		if i == 0 {
			hostOmp = got
		}
		if err == nil && got == omp {
			return got, ws, true
		}
	}
	return hostOmp, nil, false
}

// subtract removes one occurrence of each element of b from a, preserving
// a's order.
func subtract(a, b []string) []string {
	remove := map[string]int{}
	for _, s := range b {
		remove[s]++
	}
	var out []string
	for _, s := range a {
		if remove[s] > 0 {
			remove[s]--
			continue
		}
		out = append(out, s)
	}
	return out
}
