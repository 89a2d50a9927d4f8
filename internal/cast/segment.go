// File segmentation for function-granular incremental matching. A source
// file is cut at its top-level function definitions into an alternating
// sequence of gaps (everything outside function bodies: includes, globals,
// prototypes, comments) and function segments:
//
//	gap0 fn0 gap1 fn1 ... fnK gapK+1
//
// Each function segment carries a content identity — a hash input built from
// the function's name, its own-line indentation, and its exact token text,
// but *not* from anything before or after it — so reordering functions,
// editing a sibling, or touching only inter-function whitespace leaves every
// untouched function's identity intact. The residue (the concatenation of
// the gaps) gets its own identity the same way. These identities key the
// function-granular result cache (internal/cache.FuncRecord), and the
// segment token extents drive the matcher's Window restriction
// (internal/match.Matcher.Window).

package cast

import "strings"

// FuncSeg is one top-level function definition's segment.
type FuncSeg struct {
	// Fn is the function's AST node (Body is always non-nil).
	Fn *FuncDef
	// First and Last are the function's token extent (inclusive).
	First, Last int
	// Name is the function's name, part of its identity so that renaming a
	// function invalidates its cache entries even when the body is unchanged.
	Name string
	// Lead is the tail of the first token's whitespace after its last
	// newline — the function's own-line indentation. It belongs to the
	// segment (so an indentation change re-matches the function), while the
	// newline and everything before it belong to the preceding gap.
	Lead string
	// Text is the exact source text of tokens [First,Last] (Toks.Slice).
	Text string
}

// Identity is the content-hash input naming this function segment. It is
// independent of the function's position in the file and of every other
// segment's content.
func (fs *FuncSeg) Identity() string {
	return fs.Name + "\x00" + fs.Lead + "\x00" + fs.Text
}

// Raw is the segment's exact byte contribution to the file: Lead + Text.
func (fs *FuncSeg) Raw() string { return fs.Lead + fs.Text }

// Segmentation is one file cut into gaps and function segments. Splicing
// the raw pieces back together reproduces the file byte-exactly.
type Segmentation struct {
	File    *File
	Funcs   []FuncSeg
	aligned bool
}

// SegmentFile cuts f at its top-level function definitions (those with
// bodies). It returns nil when the file has no such functions — there is
// nothing to segment.
func SegmentFile(f *File) *Segmentation {
	fns := f.Funcs()
	if len(fns) == 0 {
		return nil
	}
	toks := f.Toks.Tokens
	s := &Segmentation{File: f, aligned: true}
	for _, fd := range fns {
		first, last := fd.Span()
		if first < 0 || last < first || last >= len(toks) {
			return nil // defensive: a span outside the token file
		}
		ws := f.Toks.WS(first)
		lead := ws
		if nl := strings.LastIndexByte(ws, '\n'); nl >= 0 {
			lead = ws[nl+1:]
		}
		name := ""
		if fd.Name != nil {
			name = f.Text(fd.Name)
		}
		s.Funcs = append(s.Funcs, FuncSeg{
			Fn: fd, First: first, Last: last,
			Name: name, Lead: lead, Text: f.Toks.Slice(first, last),
		})
		// Line alignment: the function must start its own line (or the
		// file), and the next token must start a new line (or be EOF).
		// Misaligned files (two functions on one line, trailing tokens on
		// the closing-brace line) fall back to file-level processing —
		// per-segment rendering could not compose line cleanup for them.
		if first > 0 && !strings.Contains(ws, "\n") {
			s.aligned = false
		}
		if next := last + 1; next < len(toks)-1 && !strings.Contains(f.Toks.WS(next), "\n") {
			s.aligned = false
		}
	}
	// Function extents must be disjoint and in source order (always true for
	// top-level declarations; checked so splicing can assume it).
	for i := 1; i < len(s.Funcs); i++ {
		if s.Funcs[i].First <= s.Funcs[i-1].Last {
			return nil
		}
	}
	return s
}

// Aligned reports whether every segment boundary falls on a line boundary;
// only aligned files are eligible for per-segment rendering.
func (s *Segmentation) Aligned() bool { return s.aligned }

// GapBounds returns the token extent [a,b] of gap i (b < a for an empty
// gap). Gap i precedes function i; gap len(Funcs) is the tail of the file,
// including the EOF token and its trailing whitespace.
func (s *Segmentation) GapBounds(i int) (a, b int) {
	a = 0
	if i > 0 {
		a = s.Funcs[i-1].Last + 1
	}
	b = len(s.File.Toks.Tokens) - 1
	if i < len(s.Funcs) {
		b = s.Funcs[i].First - 1
	}
	return a, b
}

// GapHead returns the part of function i's leading whitespace that belongs
// to gap i: everything up to and including its last newline ("" for the
// final gap, which has no following function).
func (s *Segmentation) GapHead(i int) string {
	if i >= len(s.Funcs) {
		return ""
	}
	ws := s.File.Toks.WS(s.Funcs[i].First)
	return ws[:len(ws)-len(s.Funcs[i].Lead)]
}

// GapRaw returns gap i's exact byte contribution to the file: the source
// from the end of function i-1 (or the file's start) to function i's Lead
// (or the file's end). It shares the source's bytes.
func (s *Segmentation) GapRaw(i int) string {
	toks := s.File.Toks
	start, end := 0, len(toks.Src)
	if i > 0 {
		start = toks.Tokens[s.Funcs[i-1].Last].End()
	}
	if i < len(s.Funcs) {
		end = int(toks.Tokens[s.Funcs[i].First].Pos.Offset) - len(s.Funcs[i].Lead)
	}
	return toks.Src[start:end]
}

// ResidueIdentity is the content-hash input naming the residue — every gap,
// in order, separated so gap boundaries cannot alias.
func (s *Segmentation) ResidueIdentity() string {
	var sb strings.Builder
	for i := 0; i <= len(s.Funcs); i++ {
		if i > 0 {
			sb.WriteByte('\x00')
		}
		sb.WriteString(s.GapRaw(i))
	}
	return sb.String()
}

// Splice reassembles a file from per-gap and per-function texts:
// gaps[0] + funcs[0] + gaps[1] + ... + funcs[K] + gaps[K+1].
// With the raw pieces it reproduces the original file byte-exactly.
func (s *Segmentation) Splice(gaps, funcs []string) string {
	var sb strings.Builder
	for i := 0; i <= len(s.Funcs); i++ {
		sb.WriteString(gaps[i])
		if i < len(s.Funcs) {
			sb.WriteString(funcs[i])
		}
	}
	return sb.String()
}

// FuncWindow returns the matcher window admitting exactly the tree nodes
// inside function i's extent.
func (s *Segmentation) FuncWindow(i int) func(first, last int) bool {
	f, l := s.Funcs[i].First, s.Funcs[i].Last
	return func(first, last int) bool { return first >= f && last <= l }
}

// ResidueWindow returns the matcher window admitting exactly the tree nodes
// contained in no function extent. Because top-level function subtrees own
// contiguous token ranges, every node is either inside exactly one function
// extent or outside all of them, so FuncWindow(0..K) and ResidueWindow
// partition the candidate nodes.
func (s *Segmentation) ResidueWindow() func(first, last int) bool {
	segs := s.Funcs
	return func(first, last int) bool {
		for i := range segs {
			if first >= segs[i].First && last <= segs[i].Last {
				return false
			}
		}
		return true
	}
}

// ResidueOffset converts an absolute token index lying outside every
// function extent into its residue-relative offset: the count of residue
// tokens preceding it. The offset only depends on the residue's own content
// (function token counts are excluded), so it stays stable while functions
// above the token grow or shrink — the property the analysis baseline and
// the per-function finding cache key on.
func (s *Segmentation) ResidueOffset(ti int) int {
	off := ti
	for i := range s.Funcs {
		if s.Funcs[i].Last < ti {
			off -= s.Funcs[i].Last - s.Funcs[i].First + 1
		}
	}
	return off
}

// ResidueToken is the inverse of ResidueOffset: it maps a residue-relative
// offset back to the absolute token index under this segmentation.
func (s *Segmentation) ResidueToken(off int) int {
	ti := off
	for i := range s.Funcs {
		if s.Funcs[i].First <= ti {
			ti += s.Funcs[i].Last - s.Funcs[i].First + 1
		}
	}
	return ti
}
