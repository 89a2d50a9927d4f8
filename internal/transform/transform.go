// Package transform applies token-level edits to a lexed C/C++ file. A
// semantic patch match is realised as a set of token deletions (for '-'
// pattern tokens) and anchored text insertions (for '+' lines). Untouched
// tokens keep their exact source text and whitespace, so everything the
// patch does not mention survives byte-for-byte — the property that makes
// semantic patches reviewable as ordinary diffs.
package transform

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/ctoken"
)

// marker tags the whitespace of a deleted token during rendering so the
// cleanup pass can drop lines that lost all their tokens.
const marker = "\x00"

// Where selects insertion placement relative to the anchor token.
type Where uint8

// Insertion placements.
const (
	// BeforeOwnLine places the text on its own line(s) before the line the
	// anchor token starts on.
	BeforeOwnLine Where = iota
	// AfterOwnLine places the text on its own line(s) after the anchor
	// token.
	AfterOwnLine
	// Inline places the text exactly at the anchor token's position (used
	// to replace deleted tokens).
	Inline
	// InlineAfter places the text directly after the anchor token's text.
	InlineAfter
)

// Insertion is one pending text insertion.
type Insertion struct {
	Anchor int // token index
	Place  Where
	Text   string // may contain newlines; indentation is added per line
}

// EditSet collects edits against one token file.
type EditSet struct {
	file *ctoken.File
	del  map[int]bool
	ins  []Insertion // in the order they were queued
}

// NewEditSet creates an empty edit set for the file.
func NewEditSet(f *ctoken.File) *EditSet {
	return &EditSet{file: f, del: map[int]bool{}}
}

// File returns the underlying token file.
func (e *EditSet) File() *ctoken.File { return e.file }

// Empty reports whether no edits are recorded.
func (e *EditSet) Empty() bool { return len(e.del) == 0 && len(e.ins) == 0 }

// DeleteRange marks tokens [first,last] (inclusive) for deletion.
func (e *EditSet) DeleteRange(first, last int) {
	for i := first; i <= last && i < len(e.file.Tokens); i++ {
		if i >= 0 {
			e.del[i] = true
		}
	}
}

// Insert queues text at the anchor with the given placement.
func (e *EditSet) Insert(anchor int, place Where, text string) {
	e.ins = append(e.ins, Insertion{Anchor: anchor, Place: place, Text: text})
}

// Overlaps reports whether the token range [first,last] intersects any
// already-deleted token; the engine uses it to keep matches disjoint.
func (e *EditSet) Overlaps(first, last int) bool {
	for i := first; i <= last; i++ {
		if e.del[i] {
			return true
		}
	}
	return false
}

// indentOf returns the leading whitespace of the line on which token i
// starts.
func (e *EditSet) indentOf(i int) string {
	if i < 0 || i >= len(e.file.Tokens) {
		return ""
	}
	src := e.file.Src
	off := min(int(e.file.Tokens[i].Pos.Offset), len(src))
	lineStart := strings.LastIndexByte(src[:off], '\n') + 1
	j := lineStart
	for j < len(src) && (src[j] == ' ' || src[j] == '\t') {
		j++
	}
	return src[lineStart:j]
}

// Merge folds o's edits into e. Both sets must address the same token file.
// Deletions union; insertions append after e's own, preserving o's internal
// order — per-anchor insertion order is therefore preserved whenever the two
// sets touch disjoint anchors (the function-granular runner's case).
func (e *EditSet) Merge(o *EditSet) {
	for i := range o.del {
		e.del[i] = true
	}
	e.ins = append(e.ins, o.ins...)
}

// WithinRange reports whether every recorded edit touches only tokens in
// [first,last].
func (e *EditSet) WithinRange(first, last int) bool {
	for i := range e.del {
		if i < first || i > last {
			return false
		}
	}
	for _, in := range e.ins {
		if in.Anchor < first || in.Anchor > last {
			return false
		}
	}
	return true
}

// Touches reports whether any recorded edit lands on a token in [first,last].
func (e *EditSet) Touches(first, last int) bool {
	for i := range e.del {
		if i >= first && i <= last {
			return true
		}
	}
	for _, in := range e.ins {
		if in.Anchor >= first && in.Anchor <= last {
			return true
		}
	}
	return false
}

// Edited returns the token indices the set deletes or anchors insertions
// on, unordered and possibly repeated: every token Touches can report.
func (e *EditSet) Edited() []int {
	out := make([]int, 0, len(e.del)+len(e.ins))
	for i := range e.del {
		out = append(out, i)
	}
	for _, in := range e.ins {
		out = append(out, in.Anchor)
	}
	return out
}

// InsertedBytes returns the total length of the queued insertion texts.
func (e *EditSet) InsertedBytes() int {
	n := 0
	for _, in := range e.ins {
		n += len(in.Text)
	}
	return n
}

// Apply renders the edited source.
func (e *EditSet) Apply() string {
	out, _ := e.render(0, len(e.file.Tokens)-1, "", false)
	return out
}

// ApplyRange renders tokens [first,last] with e's edits, substituting lead
// for the first token's whitespace (the caller owns the bytes before it).
// The returned text composes with the untouched surrounding pieces exactly
// as a full Apply would render them — except when ambiguous is true: the
// range's final line was emptied by deletions but the newline that would
// have removed it lies beyond the range, so a full render would drop a line
// this render had to keep. Callers treat an ambiguous render as "cannot
// compose" and fall back to whole-file rendering.
func (e *EditSet) ApplyRange(first, last int, lead string) (out string, ambiguous bool) {
	if last < first {
		return "", false
	}
	return e.render(first, last, lead, true)
}

// render is the shared token loop behind Apply and ApplyRange.
func (e *EditSet) render(first, last int, lead string, override bool) (string, bool) {
	// A stable sort by anchor keeps each anchor's insertions in the order
	// they were queued; the loop below walks them with a cursor.
	ins := slices.Clone(e.ins)
	sort.SliceStable(ins, func(i, j int) bool { return ins[i].Anchor < ins[j].Anchor })
	toks := e.file.Tokens
	last = min(last, len(toks)-1)
	// Size the output once: the source span plus room for each insertion
	// and the indentation it gains.
	size := len(lead) + len(e.file.WS(first)) + toks[last].End() - int(toks[first].Pos.Offset)
	for _, in := range ins {
		size += 2 * len(in.Text)
	}
	var sb strings.Builder
	sb.Grow(size)
	next := 0
	prevDeleted := false
	for i := first; i <= last; i++ {
		for next < len(ins) && ins[next].Anchor < i {
			next++
		}
		// A run of tokens that nothing deletes or anchors on renders as the
		// source it spans, whitespace included: copy it in one piece.
		if i > first || !override {
			j := i
			for j <= last && (next == len(ins) || ins[next].Anchor > j) && (len(e.del) == 0 || !e.del[j]) {
				j++
			}
			if j > i {
				sb.WriteString(e.file.WS(i))
				sb.WriteString(e.file.Slice(i, j-1))
				prevDeleted = false
				i = j - 1
				continue
			}
		}
		ws := e.file.WS(i)
		if i == first && override {
			// The caller owns the bytes before the range; substitute the
			// range-local whitespace (the anchor's own-line indentation).
			ws = lead
		}
		at := next
		for next < len(ins) && ins[next].Anchor == i {
			next++
		}
		inserts := ins[at:next]

		// BeforeOwnLine insertions: split the token's whitespace at its last
		// newline and slot the new lines in between.
		var beforeOwn []Insertion
		var inline []Insertion
		var afterOwn []Insertion
		var inlineAfter []Insertion
		for _, in := range inserts {
			switch in.Place {
			case BeforeOwnLine:
				beforeOwn = append(beforeOwn, in)
			case Inline:
				inline = append(inline, in)
			case AfterOwnLine:
				afterOwn = append(afterOwn, in)
			case InlineAfter:
				inlineAfter = append(inlineAfter, in)
			}
		}

		if len(beforeOwn) > 0 {
			indent := e.indentOf(i)
			nl := strings.LastIndexByte(ws, '\n')
			head, tail := "", ws
			if nl >= 0 {
				head, tail = ws[:nl+1], ws[nl+1:]
			}
			sb.WriteString(head)
			for _, in := range beforeOwn {
				for _, line := range strings.Split(in.Text, "\n") {
					sb.WriteString(indent)
					sb.WriteString(line)
					sb.WriteString("\n")
				}
			}
			if nl < 0 && tail == ws {
				// No newline in the anchor's whitespace (e.g. first token of
				// the file or same-line anchor): the inserted lines already
				// end with newline; keep original spacing then the token.
				sb.WriteString(tail)
			} else {
				sb.WriteString(tail)
			}
			ws = "" // consumed
		}

		deleted := e.del[i]
		if ws != "" {
			switch {
			case deleted && prevDeleted && !strings.Contains(ws, "\n"):
				// Interior whitespace of a deleted run collapses, so inline
				// deletions do not leave runs of blanks behind.
				sb.WriteString(marker)
			case deleted:
				sb.WriteString(ws)
				sb.WriteString(marker)
			default:
				sb.WriteString(ws)
			}
		} else if deleted {
			sb.WriteString(marker)
		}
		prevDeleted = deleted

		for _, in := range inline {
			sb.WriteString(in.Text)
		}

		if !deleted {
			sb.WriteString(e.file.Text(i))
		}

		for _, in := range inlineAfter {
			sb.WriteString(in.Text)
		}
		if len(afterOwn) > 0 {
			indent := e.indentOf(i)
			for _, in := range afterOwn {
				for _, line := range strings.Split(in.Text, "\n") {
					sb.WriteString("\n")
					sb.WriteString(indent)
					sb.WriteString(line)
				}
			}
		}
	}
	return cleanup(sb.String())
}

// cleanup removes lines that consist only of whitespace and deletion
// markers (a fully deleted source line), and strips markers elsewhere.
// ambiguous reports that the final, newline-less line was emptied by
// deletions: a full-file render would see that line continue into the
// following range and might drop it entirely, so a range render cannot
// know the composed result. (Apply always renders through the file's final
// newline-or-EOF, where the flag is meaningless and ignored.)
func cleanup(s string) (out string, ambiguous bool) {
	if !strings.Contains(s, marker) {
		return s, false
	}
	lines := strings.SplitAfter(s, "\n")
	var sb strings.Builder
	for _, line := range lines {
		if strings.Contains(line, marker) {
			stripped := strings.ReplaceAll(line, marker, "")
			if strings.TrimSpace(stripped) == "" {
				if strings.HasSuffix(line, "\n") {
					continue // drop the emptied line entirely
				}
				ambiguous = true
			}
			sb.WriteString(stripped)
			continue
		}
		sb.WriteString(line)
	}
	return sb.String(), ambiguous
}
