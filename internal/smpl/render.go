// SmPL rendering: the inverse of ParsePatch. Render prints a parsed patch
// back to .cocci text such that parsing the rendered text yields a
// structurally identical patch, and rendering that re-parse reproduces the
// rendered text byte-for-byte (the parse→print→parse fixpoint). The renderer
// is what lets the engine *emit* patches — gocci-infer assembles Rule values
// programmatically and goes through BuildPatch so the patch it verifies is
// the very text it prints.

package smpl

import (
	"fmt"
	"strings"

	"repro/internal/cast"
)

// Render prints the patch as .cocci text. The output is canonical: metavar
// declarations one per line, rule headers in `@name@`/`@name depends on X@`
// form, virtuals first, bodies verbatim. Rendering is a pure function of the
// parsed structure, so Render(ParsePatch(Render(p))) == Render(p).
func Render(p *Patch) string {
	var sb strings.Builder
	if len(p.Virtuals) > 0 {
		sb.WriteString("virtual ")
		sb.WriteString(strings.Join(p.Virtuals, ", "))
		sb.WriteString(";\n\n")
	}
	for i, r := range p.Rules {
		if i > 0 {
			sb.WriteString("\n")
		}
		renderRule(&sb, r)
	}
	return sb.String()
}

func renderRule(sb *strings.Builder, r *Rule) {
	if r.Check != nil {
		// Canonical field order; msg always quoted so interpolation markers
		// and spaces survive the parse→print→parse fixpoint.
		fmt.Fprintf(sb, "// gocci:check id=%s severity=%s msg=%q\n",
			r.Check.ID, r.Check.Severity, r.Check.Msg)
	}
	sb.WriteString("@")
	switch r.Kind {
	case ScriptRule:
		sb.WriteString("script:")
		sb.WriteString(r.Lang)
		if r.Name != "" {
			sb.WriteString(" ")
			sb.WriteString(r.Name)
		}
	case InitializeRule:
		sb.WriteString("initialize:")
		sb.WriteString(r.Lang)
	case FinalizeRule:
		sb.WriteString("finalize:")
		sb.WriteString(r.Lang)
	default:
		sb.WriteString(r.Name)
	}
	if r.Depends != nil {
		sb.WriteString(" depends on ")
		sb.WriteString(RenderDep(r.Depends))
	}
	sb.WriteString("@\n")

	switch r.Kind {
	case ScriptRule:
		for _, in := range r.Inputs {
			fmt.Fprintf(sb, "%s << %s.%s;\n", in.Local, in.Rule, in.Remote)
		}
		for _, out := range r.Outputs {
			sb.WriteString(out)
			sb.WriteString(";\n")
		}
	default:
		for _, m := range r.Metas {
			sb.WriteString(RenderMeta(m))
			sb.WriteString("\n")
		}
		for _, name := range r.Typedefs {
			sb.WriteString("typedef " + name + ";\n")
		}
	}
	sb.WriteString("@@\n")

	body := r.Body
	if r.Kind != MatchRule {
		body = r.Code
	}
	sb.WriteString(body)
	sb.WriteString("\n")
}

// RenderMeta prints one metavariable declaration, terminated with ';'.
func RenderMeta(m *MetaDecl) string {
	var sb strings.Builder
	sb.WriteString(m.Kind.String())
	sb.WriteString(" ")
	if m.FromRule != "" {
		sb.WriteString(m.FromRule)
		sb.WriteString(".")
		sb.WriteString(m.RemoteName)
	} else {
		sb.WriteString(m.Name)
	}
	switch {
	case m.Regex != nil:
		fmt.Fprintf(&sb, " =~ %q", m.Regex.String())
	case len(m.Values) > 0:
		sb.WriteString(" = {")
		sb.WriteString(strings.Join(m.Values, ","))
		sb.WriteString("}")
	case len(m.Fresh) > 0:
		sb.WriteString(" = ")
		parts := make([]string, 0, len(m.Fresh))
		for _, p := range m.Fresh {
			if p.Ref != "" {
				parts = append(parts, p.Ref)
			} else {
				parts = append(parts, fmt.Sprintf("%q", p.Lit))
			}
		}
		sb.WriteString(strings.Join(parts, " ## "))
	}
	sb.WriteString(";")
	return sb.String()
}

// RenderDep prints a dependency expression in the `depends on` syntax.
// Composite children are parenthesized, so precedence survives re-parsing.
func RenderDep(d *DepExpr) string {
	if d == nil {
		return ""
	}
	child := func(c *DepExpr) string {
		if len(c.And) > 0 || len(c.Or) > 0 {
			return "(" + RenderDep(c) + ")"
		}
		return RenderDep(c)
	}
	switch {
	case len(d.And) > 0:
		parts := make([]string, len(d.And))
		for i, c := range d.And {
			parts[i] = child(c)
		}
		return strings.Join(parts, " && ")
	case len(d.Or) > 0:
		parts := make([]string, len(d.Or))
		for i, c := range d.Or {
			parts[i] = child(c)
		}
		return strings.Join(parts, " || ")
	case d.Not:
		return "!" + d.Name
	default:
		return d.Name
	}
}

// BuildPatch assembles a patch from programmatically constructed rules: it
// renders them to .cocci text and parses that text, so the returned patch's
// Src is exactly what Render prints and the rule bodies have been compiled
// by the same front end every hand-written patch goes through. Rules only
// need Name, Kind, Lang, Depends, Metas, and Body/Code set.
func BuildPatch(name string, virtuals []string, rules []*Rule) (*Patch, error) {
	text := Render(&Patch{Name: name, Virtuals: virtuals, Rules: rules})
	return ParsePatch(name, text)
}

// NewMetaDecl constructs a plain metavariable declaration of the given kind
// (the constructor gocci-infer uses for its typed holes).
func NewMetaDecl(kind cast.MetaKind, name string) *MetaDecl {
	return &MetaDecl{Kind: kind, Name: name, RemoteName: name}
}
