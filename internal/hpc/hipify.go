// The hipify campaign: CUDA→HIP translation (patchlib L8–L10) shipped as a
// batch campaign whose SmPL text is *generated* from the live dictionaries
// in dict.go. Each dictionary family becomes one member patch —
// headers, functions (renamed only in call position), types (renamed in
// every type position), enumerators, and the triple-chevron kernel launch —
// applied in that order. Because every dictionary entry is spelled out in
// the generated patch text, the persistent result cache keys on the
// dictionaries themselves: extending the function table reshapes the patch
// and invalidates stale outcomes with no extra bookkeeping.
//
// The launch member is deliberately a single rule so it stays
// function-local (core.FunctionLocal) and rides the per-function result
// cache; a disjunction covers the four-, three- and two-argument
// <<<...>>> forms, padding the missing shared-memory and stream arguments
// with 0 as HIP requires all four.

package hpc

import (
	"sort"
	"strings"
)

// sortedKeys returns m's keys whose mapping actually renames (identity
// entries like __syncthreads generate no rule), in sorted order for
// deterministic patch text.
func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k, v := range m {
		if k != v {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// hipifyHeadersPatch rewrites #include directives.
func hipifyHeadersPatch() string {
	var sb strings.Builder
	for _, from := range sortedKeys(Headers) {
		sb.WriteString("@@\n@@\n- #include <" + from + ">\n+ #include <" + Headers[from] + ">\n\n")
	}
	return sb.String()
}

// hipifyFuncsPatch renames API functions in call position only: a local
// variable or field that merely collides with an API name never matches the
// fn(el) call pattern.
func hipifyFuncsPatch() string {
	var sb strings.Builder
	for _, from := range sortedKeys(Functions) {
		sb.WriteString("@@\nexpression list el;\n@@\n- " + from + "\n+ " + Functions[from] + "\n(el)\n\n")
	}
	return sb.String()
}

// hipifyTypesPatch renames type names wherever the parser builds a type on
// them — globals, return types, parameters, locals, pointer and array
// declarators — through one `typedef` type-pattern rule per entry.
func hipifyTypesPatch() string {
	var sb strings.Builder
	for _, from := range sortedKeys(Types) {
		sb.WriteString("@@\ntypedef " + from + ";\n@@\n- " + from + "\n+ " + Types[from] + "\n\n")
	}
	return sb.String()
}

// hipifyEnumsPatch renames enumerator constants in expression position.
func hipifyEnumsPatch() string {
	var sb strings.Builder
	for _, from := range sortedKeys(Enums) {
		sb.WriteString("@@\n@@\n- " + from + "\n+ " + Enums[from] + "\n\n")
	}
	return sb.String()
}

// hipifyLaunchPatch rewrites triple-chevron launches to hipLaunchKernelGGL.
// Kept a single rule so the patch stays function-local.
const hipifyLaunchPatch = `@@
identifier k;
expression b,t,x,y;
expression list el;
@@
(
- k<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(k, b, t, x, y, el)
|
- k<<<b,t,x>>>(el)
+ hipLaunchKernelGGL(k, b, t, x, 0, el)
|
- k<<<b,t>>>(el)
+ hipLaunchKernelGGL(k, b, t, 0, 0, el)
)
`

// hipifyCampaign builds the CUDA→HIP campaign from the live dictionaries.
func hipifyCampaign() *Campaign {
	return &Campaign{
		Name:      "hipify",
		Title:     "CUDA API usage and kernel launches to HIP",
		Version:   "2",
		CPlusPlus: true,
		CUDA:      true,
		members: []member{
			{name: "hipify-headers.cocci", text: hipifyHeadersPatch()},
			{name: "hipify-funcs.cocci", text: hipifyFuncsPatch()},
			{name: "hipify-types.cocci", text: hipifyTypesPatch()},
			{name: "hipify-enums.cocci", text: hipifyEnumsPatch()},
			{name: "hipify-launch.cocci", text: hipifyLaunchPatch},
		},
	}
}
