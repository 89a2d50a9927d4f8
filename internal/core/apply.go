package core

import (
	"strings"

	"repro/internal/ctoken"
	"repro/internal/match"
	"repro/internal/smpl"
	"repro/internal/transform"
)

// applyMatch realises one match's transformation as token edits: minus
// pattern tokens delete their corresponding code tokens; plus blocks insert
// substituted text at anchors resolved through the match correspondence.
// It returns false (and records nothing) when the deletions would overlap
// edits already made by an earlier match.
func (e *Engine) applyMatch(st *fileState, pat *smpl.Pattern, mt *match.Match, env match.Env) bool {
	res := match.NewResolver(mt)
	toks := pat.Toks.Tokens

	// Collect deletions first so overlap can veto the whole match.
	type rng struct{ f, l int }
	var dels []rng
	seen := map[rng]bool{}
	for i := 0; i < len(toks)-1; i++ { // skip EOF
		if pat.TokenMark(i) != smpl.Minus {
			continue
		}
		for _, r := range res.Ranges(i) {
			if r[1] < r[0] {
				continue
			}
			k := rng{r[0], r[1]}
			if !seen[k] {
				seen[k] = true
				dels = append(dels, k)
			}
		}
	}
	for _, d := range dels {
		if st.ed.Overlaps(d.f, d.l) {
			return false
		}
	}
	for _, d := range dels {
		st.ed.DeleteRange(d.f, d.l)
	}

	// Plus blocks.
	for _, blk := range pat.PlusBlocks {
		text := substitute(strings.Join(blk.Text, "\n"), env)
		switch {
		case blk.AnchorLine >= 0 && pat.LineMarks[blk.AnchorLine] == smpl.Minus:
			// Replacement: insert at each code position where the anchor
			// line's first minus token that matched code was deleted.
			first := replacementAnchor(pat, res, blk.AnchorLine)
			if first < 0 {
				continue
			}
			for _, r := range res.Ranges(first) {
				if r[0] < 0 {
					continue
				}
				// Own-line replacement only when the deleted range covers
				// whole lines; a partial-line deletion keeps the insertion
				// inline so the rest of the line stays attached.
				if tokenStartsLine(st, r[0]) && tokenEndsLine(st, r[1]) {
					st.ed.Insert(r[0], transform.BeforeOwnLine, text)
				} else {
					st.ed.Insert(r[0], transform.Inline, text)
				}
			}
		case blk.AnchorLine >= 0:
			// After a context line.
			_, last := lineTokens(pat, blk.AnchorLine)
			if last < 0 {
				continue
			}
			if code, ok := res.AnchorAfter(last); ok {
				st.ed.Insert(code, transform.AfterOwnLine, text)
			}
		case blk.FollowLine >= 0:
			first, _ := lineTokens(pat, blk.FollowLine)
			if first < 0 {
				continue
			}
			if code, ok := res.AnchorBefore(first, len(toks)); ok {
				st.ed.Insert(code, transform.BeforeOwnLine, text)
			}
		}
	}
	return true
}

// tokenStartsLine reports whether code token i begins its source line.
func tokenStartsLine(st *fileState, i int) bool {
	if i <= 0 {
		return true
	}
	return strings.Contains(st.file.Toks.WS(i), "\n")
}

// tokenEndsLine reports whether code token i is the last on its source line.
func tokenEndsLine(st *fileState, i int) bool {
	if i >= len(st.file.Toks.Tokens)-1 {
		return true
	}
	return strings.Contains(st.file.Toks.WS(i+1), "\n")
}

// replacementAnchor returns the first minus pattern token on the given body
// line whose match resolves to code (-1 when none does). It is usually the
// line's first token; a disjunction marker, or a token of a branch that did
// not match, resolves to nothing and is passed over.
func replacementAnchor(pat *smpl.Pattern, res *match.Resolver, line int) int {
	first, last := lineTokens(pat, line)
	if first < 0 {
		return -1
	}
	for i := first; i <= last; i++ {
		if pat.TokenMark(i) != smpl.Minus {
			continue
		}
		for _, r := range res.Ranges(i) {
			if r[0] >= 0 {
				return i
			}
		}
	}
	return -1
}

// lineTokens returns the first and last pattern token index on the given
// body line (-1,-1 when the line holds no tokens).
func lineTokens(pat *smpl.Pattern, line int) (int, int) {
	first, last := -1, -1
	for i, t := range pat.Toks.Tokens {
		if t.Kind == ctoken.EOF {
			continue
		}
		if int(t.Pos.Line)-1 == line {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	return first, last
}
