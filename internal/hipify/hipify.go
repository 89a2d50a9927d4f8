package hipify

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/transform"
)

// Report summarizes a translation.
type Report struct {
	Functions int // function identifiers renamed
	Types     int // type names renamed
	Enums     int // enumerators renamed
	Launches  int // <<<>>> launches rewritten
	Headers   int // includes rewritten
}

func (r Report) Total() int {
	return r.Functions + r.Types + r.Enums + r.Launches + r.Headers
}

// Translate performs AST-level CUDA-to-HIP translation: function names are
// renamed only in call position, type names only in type position,
// enumerators only in expression position, and triple-chevron kernel
// launches become hipLaunchKernelGGL calls. Identifiers that merely collide
// with API names (local variables, struct fields, string literals, comments)
// are left alone — the property that separates this design point from the
// hipify-perl-style text baseline below.
func Translate(name, src string) (string, Report, error) {
	var rep Report
	f, err := cparse.Parse(name, src, cparse.Options{CPlusPlus: true, CUDA: true})
	if err != nil {
		return "", rep, fmt.Errorf("hipify %s: %w", name, err)
	}
	ed := transform.NewEditSet(f.Toks)

	renameTok := func(idx int, to string) {
		ed.DeleteRange(idx, idx)
		ed.Insert(idx, transform.Inline, to)
	}

	// Includes.
	for _, d := range f.Decls {
		inc, ok := d.(*cast.Include)
		if !ok {
			continue
		}
		if to, ok := Headers[inc.Path]; ok {
			first, _ := inc.Span()
			renameTok(first, "#include <"+to+">")
			rep.Headers++
		}
	}

	cast.Walk(f, func(n cast.Node) bool {
		switch x := n.(type) {
		case *cast.CallExpr:
			if id, ok := x.Fun.(*cast.Ident); ok {
				if to, ok := Functions[id.Name]; ok && to != id.Name {
					first, _ := id.Span()
					if !ed.Deleted(first) {
						renameTok(first, to)
						rep.Functions++
					}
				}
			}
		case *cast.KernelLaunch:
			rep.Launches++
			rewriteLaunch(f, ed, x)
		case *cast.Type:
			if to, ok := Types[x.Base]; ok && to != x.Base {
				// rename only the base identifier token
				first, last := x.Span()
				for i := first; i <= last; i++ {
					if f.Toks.Text(i) == x.Base && !ed.Deleted(i) {
						renameTok(i, to)
						rep.Types++
						break
					}
				}
			}
		case *cast.Ident:
			if to, ok := Enums[x.Name]; ok {
				first, _ := x.Span()
				if !ed.Deleted(first) {
					renameTok(first, to)
					rep.Enums++
				}
			}
		}
		return true
	})

	return ed.Apply(), rep, nil
}

// rewriteLaunch rewrites k<<<cfg...>>>(args...) to
// hipLaunchKernelGGL(k, cfg..., args...).
func rewriteLaunch(f *cast.File, ed *transform.EditSet, kl *cast.KernelLaunch) {
	first, last := kl.Span()
	if ed.Overlaps(first, last) {
		return
	}
	var parts []string
	parts = append(parts, f.Text(kl.Fun))
	for _, c := range kl.Config {
		parts = append(parts, f.Text(c))
	}
	// HIP requires the four launch parameters; default the optional CUDA
	// shared-memory and stream arguments.
	for i := len(kl.Config); i < 4; i++ {
		parts = append(parts, "0")
	}
	for _, a := range kl.Args {
		parts = append(parts, f.Text(a))
	}
	ed.DeleteRange(first, last)
	ed.Insert(first, transform.Inline, "hipLaunchKernelGGL("+strings.Join(parts, ", ")+")")
}

// TextHipify is the hipify-perl baseline: blind word-boundary dictionary
// substitution over the raw text, including occurrences inside strings and
// comments and identifiers that merely collide with API names. It exists as
// the comparison point for the AST-vs-text ablation benchmark.
func TextHipify(src string) (string, int) {
	dict := All()
	names := make([]string, 0, len(dict))
	for k := range dict {
		names = append(names, regexp.QuoteMeta(k))
	}
	// longest-first to avoid prefix shadowing
	sortByLenDesc(names)
	re := regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
	count := 0
	out := re.ReplaceAllStringFunc(src, func(m string) string {
		count++
		return dict[m]
	})
	// headers, line-oriented like hipify-perl
	for from, to := range Headers {
		h := "#include <" + from + ">"
		if strings.Contains(out, h) {
			out = strings.ReplaceAll(out, h, "#include <"+to+">")
			count++
		}
	}
	// kernel launches via regex (the notorious weak spot of the text
	// approach: nested commas and template arguments defeat it)
	launchRe := regexp.MustCompile(`(\w+)\s*<<<([^>]*)>>>\s*\(`)
	out = launchRe.ReplaceAllString(out, "hipLaunchKernelGGL($1, $2, ")
	return out, count
}

func sortByLenDesc(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && len(s[j]) > len(s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
