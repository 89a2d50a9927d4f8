// Package diff produces POSIX-style unified diffs between two texts using
// the Myers O(ND) shortest-edit-script algorithm. The semantic patch engine
// reports every transformation as a unified diff, mirroring spatch's default
// output mode.
package diff

import (
	"fmt"
	"strings"
)

// Unified returns a unified diff of a -> b with the given file labels and
// three lines of context. It returns "" when the inputs are identical.
func Unified(labelA, labelB, a, b string) string {
	if a == b {
		return ""
	}
	var sb strings.Builder
	sb.WriteString(Header(labelA, labelB))
	writeHunks(&sb, a, b)
	return sb.String()
}

// Header returns the "--- labelA" / "+++ labelB" lines that open a unified
// diff.
func Header(labelA, labelB string) string {
	return "--- " + labelA + "\n+++ " + labelB + "\n"
}

// Hunks returns the label-free body of the unified diff of a -> b: its "@@"
// hunks with three lines of context, "" when the inputs are identical. It
// depends only on the two texts, so it can be stored and replayed under any
// file name.
func Hunks(a, b string) string {
	if a == b {
		return ""
	}
	var sb strings.Builder
	writeHunks(&sb, a, b)
	return sb.String()
}

// writeHunks appends the hunks of a -> b to sb.
func writeHunks(sb *strings.Builder, a, b string) {
	al := splitLines(a)
	bl := splitLines(b)
	format(sb, al, bl, myers(al, bl), 3)
}

type opKind uint8

const (
	opEq opKind = iota
	opDel
	opIns
)

type op struct {
	kind opKind
	// ai/bi index the source line (for del/eq) and destination line (ins/eq).
	ai, bi int
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// myers computes the LCS-based edit script.
func myers(a, b []string) []op {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	// v[k] = furthest x on diagonal k. Backtracking needs v as it stood
	// before each step d, but step d reads only diagonals -d..d, so
	// trace[d] keeps just those 2d+1 entries (trace[d][d+k] is v[k]): the
	// trace is O(D²) rather than O(D·(N+M)).
	offset := max
	v := make([]int, 2*max+1)
	var trace [][]int
	var dFound = -1
loop:
	for d := 0; d <= max; d++ {
		trace = append(trace, append([]int(nil), v[offset-d:offset+d+1]...))
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[offset+k-1] < v[offset+k+1]) {
				x = v[offset+k+1]
			} else {
				x = v[offset+k-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[offset+k] = x
			if x >= n && y >= m {
				dFound = d
				break loop
			}
		}
	}
	// Backtrack.
	var ops []op
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vprev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vprev[d+k-1] < vprev[d+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vprev[d+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, op{opEq, x, y})
		}
		if d > 0 {
			if x == prevX {
				y--
				ops = append(ops, op{opIns, x, y})
			} else {
				x--
				ops = append(ops, op{opDel, x, y})
			}
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, op{opEq, x, y})
	}
	for x > 0 {
		x--
		ops = append(ops, op{opDel, x, 0})
	}
	for y > 0 {
		y--
		ops = append(ops, op{opIns, 0, y})
	}
	// reverse
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// format renders hunks with n lines of context into sb.
func format(sb *strings.Builder, a, b []string, ops []op, ctx int) {
	type hunk struct {
		ops []op
	}
	var hunks []hunk
	var cur []op
	eqRun := 0
	for _, o := range ops {
		if o.kind == opEq {
			eqRun++
			if len(cur) > 0 && eqRun > 2*ctx {
				// close current hunk, keep ctx of trailing context
				trail := cur[:len(cur)-(eqRun-ctx-1)]
				hunks = append(hunks, hunk{ops: trail})
				cur = nil
				eqRun = ctx + 1 // context we will prepend if a change follows
			}
			cur = append(cur, o)
		} else {
			if len(cur) == 0 || allEq(cur) {
				// trim leading context to ctx lines
				if len(cur) > ctx {
					cur = cur[len(cur)-ctx:]
				}
			}
			eqRun = 0
			cur = append(cur, o)
		}
	}
	if len(cur) > 0 && !allEq(cur) {
		// trim trailing context
		i := len(cur)
		for i > 0 && cur[i-1].kind == opEq {
			i--
		}
		if len(cur)-i > ctx {
			cur = cur[:i+ctx]
		}
		hunks = append(hunks, hunk{ops: cur})
	}

	for _, h := range hunks {
		if len(h.ops) == 0 {
			continue
		}
		aStart, bStart := -1, -1
		var aCount, bCount int
		for _, o := range h.ops {
			switch o.kind {
			case opEq:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				aCount++
				bCount++
			case opDel:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				aCount++
			case opIns:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				bCount++
			}
		}
		// POSIX: a zero-length range names the line *before* which the
		// change applies, so pure insertions/deletions print the 0-based
		// position (e.g. "@@ -0,0 +1,N @@" for inserting into an empty
		// file), not start+1.
		aPos, bPos := aStart+1, bStart+1
		if aCount == 0 {
			aPos = aStart
		}
		if bCount == 0 {
			bPos = bStart
		}
		fmt.Fprintf(sb, "@@ -%d,%d +%d,%d @@\n", aPos, aCount, bPos, bCount)
		for _, o := range h.ops {
			switch o.kind {
			case opEq:
				writeLine(sb, " ", a[o.ai])
			case opDel:
				writeLine(sb, "-", a[o.ai])
			case opIns:
				writeLine(sb, "+", b[o.bi])
			}
		}
	}
}

func allEq(ops []op) bool {
	for _, o := range ops {
		if o.kind != opEq {
			return false
		}
	}
	return true
}

// writeLine emits one hunk line. Only a file's final line can lack the
// trailing newline (splitLines keeps terminators); POSIX requires it to be
// flagged with a "\ No newline at end of file" marker rather than silently
// gaining one, so that patch(1) reproduces the original byte-for-byte.
func writeLine(sb *strings.Builder, prefix, line string) {
	sb.WriteString(prefix)
	if strings.HasSuffix(line, "\n") {
		sb.WriteString(line)
		return
	}
	sb.WriteString(line)
	sb.WriteString("\n\\ No newline at end of file\n")
}
