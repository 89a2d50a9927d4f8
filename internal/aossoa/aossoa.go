// Package aossoa implements the array-of-structures to structure-of-arrays
// refactoring of the paper's predecessor case study ([ML21]: the GADGET
// cosmological code). Given a source with an AoS declaration like
//
//	struct particle { double px, py, pz; };
//	struct particle P[1024];
//
// it analyses the struct layout, generates the SoA replacement declaration,
// generates the access-rewriting semantic patch (P[i].f -> P_soa.f[i], for
// exactly the struct's fields), and applies everything through the engine —
// the "transformation rules that let domain scientists keep developing the
// AoS code" workflow the paper describes.
package aossoa

import (
	"fmt"
	"strings"

	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// Field is one struct member.
type Field struct {
	Type string // e.g. "double"
	Name string
}

// Layout describes the AoS declaration being converted.
type Layout struct {
	StructName string  // "particle"
	ArrayName  string  // "P"
	Length     string  // "1024" (dimension expression text)
	Fields     []Field // in declaration order
}

// SoAName is the name of the generated structure-of-arrays instance.
func (l *Layout) SoAName() string { return l.ArrayName + "_soa" }

// Analyze locates `struct <structName> { ... };` and the array declaration
// `struct <structName> <arrayName>[N];` in the source.
func Analyze(src, structName, arrayName string) (*Layout, error) {
	f, err := cparse.Parse("aos.c", src, cparse.Options{})
	if err != nil {
		return nil, fmt.Errorf("aossoa: %w", err)
	}
	l := &Layout{StructName: structName, ArrayName: arrayName}

	for _, d := range f.Decls {
		switch x := d.(type) {
		case *cast.OpaqueDecl:
			raw := strings.TrimSpace(x.Raw)
			if !strings.HasPrefix(raw, "struct "+structName) || !strings.Contains(raw, "{") {
				continue
			}
			fields, err := parseFields(raw)
			if err != nil {
				return nil, err
			}
			l.Fields = fields
		case *cast.VarDecl:
			if x.Type.Base != "struct "+structName {
				continue
			}
			for _, it := range x.Items {
				if it.Name.Name == arrayName && len(it.Dims) == 1 && it.Dims[0] != nil {
					l.Length = f.Text(it.Dims[0])
				}
			}
		}
	}
	if len(l.Fields) == 0 {
		return nil, fmt.Errorf("aossoa: struct %s not found or empty", structName)
	}
	if l.Length == "" {
		return nil, fmt.Errorf("aossoa: array %s of struct %s not found", arrayName, structName)
	}
	return l, nil
}

// parseFields extracts members from the struct definition's raw text by
// parsing the brace body as a declaration sequence.
func parseFields(raw string) ([]Field, error) {
	lb := strings.Index(raw, "{")
	rb := strings.LastIndex(raw, "}")
	if lb < 0 || rb <= lb {
		return nil, fmt.Errorf("aossoa: malformed struct body")
	}
	body := raw[lb+1 : rb]
	stmts, _, err := cparse.ParseStmts(body, cparse.Options{})
	if err != nil {
		return nil, fmt.Errorf("aossoa: struct body: %w", err)
	}
	var out []Field
	for _, s := range stmts {
		ds, ok := s.(*cast.DeclStmt)
		if !ok {
			return nil, fmt.Errorf("aossoa: unsupported struct member %T", s)
		}
		base := ds.D.Type.Base
		for _, it := range ds.D.Items {
			ty := base + strings.Repeat("*", it.Stars)
			out = append(out, Field{Type: ty, Name: it.Name.Name})
		}
	}
	return out, nil
}

// SoADecl renders the replacement declaration: a struct of arrays plus its
// instance, preserving field order.
func (l *Layout) SoADecl() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "struct %s_soa {\n", l.StructName)
	for _, fld := range l.Fields {
		fmt.Fprintf(&sb, "\t%s %s[%s];\n", fld.Type, fld.Name, l.Length)
	}
	fmt.Fprintf(&sb, "};\nstruct %s_soa %s;", l.StructName, l.SoAName())
	return sb.String()
}

// AccessPatch generates the semantic patch rewriting every field access
// P[idx].f into P_soa.f[idx], restricted to exactly the struct's fields.
func (l *Layout) AccessPatch() string {
	names := make([]string, len(l.Fields))
	for i, f := range l.Fields {
		names[i] = f.Name
	}
	return fmt.Sprintf(`@soa@
identifier fld = {%s};
expression idx;
symbol %s;
@@
- %s[idx].fld
+ %s.fld[idx]
`, strings.Join(names, ","), l.ArrayName, l.ArrayName, l.SoAName())
}

// Transform runs the complete conversion: replace the AoS declarations and
// rewrite all accesses. Returns the new source and the number of rewritten
// accesses.
func Transform(src, structName, arrayName string) (string, int, error) {
	l, err := Analyze(src, structName, arrayName)
	if err != nil {
		return "", 0, err
	}

	// Step 1: rewrite accesses with the generated semantic patch.
	patch, err := smpl.ParsePatch("aossoa.cocci", l.AccessPatch())
	if err != nil {
		return "", 0, fmt.Errorf("aossoa: generated patch: %w", err)
	}
	eng := core.New(patch, core.Options{})
	res, err := eng.Run([]core.SourceFile{{Name: "aos.c", Src: src}})
	if err != nil {
		return "", 0, err
	}
	out := res.Outputs["aos.c"]

	// Step 2: swap the declarations textually (the paper notes the data
	// structure definitions are "a mere few hundred lines one could change
	// by hand"; we still automate it).
	out, err = replaceDecls(out, l)
	if err != nil {
		return "", 0, err
	}
	return out, res.MatchCount["soa"], nil
}

// replaceDecls substitutes the struct definition and array declaration with
// the SoA form.
func replaceDecls(src string, l *Layout) (string, error) {
	f, err := cparse.Parse("aos.c", src, cparse.Options{})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	lastEnd := 0
	replaced := false
	for _, d := range f.Decls {
		switch x := d.(type) {
		case *cast.OpaqueDecl:
			if strings.HasPrefix(strings.TrimSpace(x.Raw), "struct "+l.StructName) && strings.Contains(x.Raw, "{") {
				first, last := x.Span()
				start := int(f.Toks.Tokens[first].Pos.Offset)
				end := f.Toks.Tokens[last].End()
				sb.WriteString(src[lastEnd:start])
				sb.WriteString(l.SoADecl())
				lastEnd = end
				replaced = true
			}
		case *cast.VarDecl:
			if x.Type.Base == "struct "+l.StructName {
				first, last := x.Span()
				start := int(f.Toks.Tokens[first].Pos.Offset)
				end := f.Toks.Tokens[last].End()
				sb.WriteString(src[lastEnd:start])
				// the SoA instance is declared with the struct; drop this
				lastEnd = end
			}
		}
	}
	if !replaced {
		return "", fmt.Errorf("aossoa: struct %s definition not found for replacement", l.StructName)
	}
	sb.WriteString(src[lastEnd:])
	return sb.String(), nil
}
