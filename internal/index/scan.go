package index

import "strings"

// identByte reports whether b can appear inside a C identifier. The table
// is what makes the scanner a *word* scanner: an atom counts as present
// only when its occurrence is not embedded in a longer identifier.
var identByte [256]bool

func init() {
	for b := 'a'; b <= 'z'; b++ {
		identByte[b] = true
	}
	for b := 'A'; b <= 'Z'; b++ {
		identByte[b] = true
	}
	for b := '0'; b <= '9'; b++ {
		identByte[b] = true
	}
	identByte['_'] = true
}

// IdentByte reports whether b can appear inside a C identifier,
// [A-Za-z0-9_].
func IdentByte(b byte) bool { return identByte[b] }

// ContainsWord reports whether src contains w as a complete identifier-like
// word: an occurrence whose neighbours on both sides are not identifier
// bytes. It never lexes or parses — just substring search plus two boundary
// byte checks per candidate — which is what lets the prefilter reject files
// orders of magnitude faster than the parser could.
//
// The check is conservative in exactly the safe direction: an occurrence
// inside a comment or string literal still counts as present (the file is
// then parsed for nothing), but a file reported as *not* containing w
// genuinely has no identifier token spelled w, because the lexer could only
// produce one from a maximal identifier-byte run equal to w.
func ContainsWord(src, w string) bool {
	if w == "" {
		return true
	}
	for i := 0; ; {
		j := strings.Index(src[i:], w)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(w)
		if (j == 0 || !identByte[src[j-1]]) && (end == len(src) || !identByte[src[end]]) {
			return true
		}
		// Overlapping matches are impossible for identifier words embedded
		// in identifier runs, so resuming after the failed occurrence's
		// first byte is enough.
		i = j + 1
	}
}

// ScanWords extracts the set of identifier-like words in src, the answer
// set for Filter.MayMatchWords: w is in the set exactly when
// ContainsWord(src, w) holds for an identifier w. One ScanWords pass costs
// about the same as a handful of ContainsWord scans, and its result can be
// evaluated against any number of patches' filters — and persisted, keyed
// by the file's content hash, to serve future runs without touching the
// file's bytes again.
func ScanWords(src string) map[string]bool {
	words := identWords(src)
	set := make(map[string]bool, len(words))
	for _, w := range words {
		set[w] = true
	}
	return set
}

// identWords extracts every maximal identifier-like word from text: a run
// of identifier bytes starting with a letter or underscore. Runs starting
// with a digit are numeric literals, not identifiers, and are dropped.
func identWords(text string) []string {
	var out []string
	for i := 0; i < len(text); {
		c := text[i]
		if !identByte[c] {
			i++
			continue
		}
		j := i
		for j < len(text) && identByte[text[j]] {
			j++
		}
		if c < '0' || c > '9' {
			out = append(out, text[i:j])
		}
		i = j
	}
	return out
}
