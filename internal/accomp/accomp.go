// Package accomp translates OpenACC compute directives to OpenMP, the use
// case the paper sketches with a pragmainfo metavariable and a Python
// helper ("Translation of directive-based APIs"). It implements a real
// directive/clause parser and a mapping table in the spirit of Intel's
// application migration tool, so the semantic patch's script rule can call
// into it instead of returning a hardcoded clause.
package accomp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Directive is a parsed OpenACC (or OpenMP) pragma line body: the text after
// "#pragma acc".
type Directive struct {
	// Name is the directive, possibly two words ("parallel loop",
	// "enter data").
	Name string
	// Clauses in source order.
	Clauses []Clause
}

// Clause is one clause with an optional parenthesized argument.
type Clause struct {
	Name string
	Arg  string // contents of (...), "" if none
}

// String renders the directive back to pragma-body text.
func (d Directive) String() string {
	var sb strings.Builder
	sb.WriteString(d.Name)
	for _, c := range d.Clauses {
		sb.WriteByte(' ')
		sb.WriteString(c.Name)
		if c.Arg != "" {
			sb.WriteByte('(')
			sb.WriteString(c.Arg)
			sb.WriteByte(')')
		}
	}
	return sb.String()
}

// ParseDirective parses the body of an OpenACC pragma (without "#pragma acc").
func ParseDirective(body string) (Directive, error) {
	toks, err := scan(body)
	if err != nil {
		return Directive{}, err
	}
	if len(toks) == 0 {
		return Directive{}, fmt.Errorf("empty directive")
	}
	d := Directive{}
	i := 0
	// Multi-word directive heads.
	head := toks[0].word
	i++
	switch head {
	case "parallel", "kernels", "serial":
		if i < len(toks) && toks[i].word == "loop" && toks[i].arg == "" {
			head += " loop"
			i++
		}
	case "enter", "exit":
		if i < len(toks) && toks[i].word == "data" {
			head += " data"
			i++
		}
	}
	d.Name = head
	for ; i < len(toks); i++ {
		d.Clauses = append(d.Clauses, Clause{Name: toks[i].word, Arg: toks[i].arg})
	}
	return d, nil
}

type tok struct {
	word string
	arg  string
}

// scan splits "parallel loop copy(a,b) collapse(2)" into word/arg tokens.
func scan(s string) ([]tok, error) {
	var out []tok
	i := 0
	n := len(s)
	for i < n {
		for i < n && (s[i] == ' ' || s[i] == '\t' || s[i] == ',') {
			i++
		}
		if i >= n {
			break
		}
		start := i
		for i < n && s[i] != ' ' && s[i] != '\t' && s[i] != '(' && s[i] != ',' {
			i++
		}
		word := s[start:i]
		if word == "" {
			return nil, fmt.Errorf("unexpected character %q in directive", string(s[i]))
		}
		t := tok{word: word}
		// optional (...) argument, balanced
		for i < n && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i < n && s[i] == '(' {
			depth := 0
			argStart := i + 1
			for ; i < n; i++ {
				if s[i] == '(' {
					depth++
				} else if s[i] == ')' {
					depth--
					if depth == 0 {
						break
					}
				}
			}
			if depth != 0 {
				return nil, fmt.Errorf("unbalanced parentheses in %q", s)
			}
			t.arg = strings.TrimSpace(s[argStart:i])
			i++ // past ')'
		}
		out = append(out, t)
	}
	return out, nil
}

// Mode selects the OpenMP flavour to emit.
type Mode uint8

// Translation modes.
const (
	// Host targets multicore CPU OpenMP (parallel for).
	Host Mode = iota
	// Offload targets OpenMP device offloading (target teams ...).
	Offload
)

// directiveMap maps OpenACC directives to OpenMP per mode.
var directiveMap = map[string][2]string{
	//                     Host                      Offload
	"parallel":      {"parallel", "target teams"},
	"parallel loop": {"parallel for", "target teams distribute parallel for"},
	"kernels":       {"parallel", "target teams"},
	"kernels loop":  {"parallel for", "target teams distribute parallel for"},
	"serial":        {"single", "target"},
	"serial loop":   {"for", "target"},
	"loop":          {"for", "distribute parallel for"},
	"data":          {"", "target data"},
	"enter data":    {"", "target enter data"},
	"exit data":     {"", "target exit data"},
	"update":        {"", "target update"},
	"routine":       {"declare simd", "declare target"},
	"declare":       {"", "declare target"},
	"atomic":        {"atomic", "atomic"},
	"wait":          {"taskwait", "taskwait"},
	"host_data":     {"", "target data"},
	"cache":         {"", ""},
}

// clauseMap maps OpenACC clauses to OpenMP clauses; %s is the argument.
var clauseMap = map[string]string{
	"copy":          "map(tofrom: %s)",
	"copyin":        "map(to: %s)",
	"copyout":       "map(from: %s)",
	"create":        "map(alloc: %s)",
	"delete":        "map(delete: %s)",
	"present":       "map(tofrom: %s)",
	"deviceptr":     "is_device_ptr(%s)",
	"private":       "private(%s)",
	"firstprivate":  "firstprivate(%s)",
	"reduction":     "reduction(%s)",
	"num_gangs":     "num_teams(%s)",
	"num_workers":   "num_threads(%s)",
	"vector_length": "simdlen(%s)",
	"collapse":      "collapse(%s)",
	"if":            "if(%s)",
	"default":       "default(%s)",
	"device":        "map(tofrom: %s)",
	"self":          "map(from: %s)",
	"host":          "map(from: %s)",
	"async":         "nowait",
	"wait":          "",
	"gang":          "",
	"worker":        "",
	"vector":        "simd",
	"seq":           "",
	"independent":   "",
	"auto":          "",
}

// deviceOnly lists the OpenMP clause forms that only apply to device
// constructs: gcc rejects them on the host-mode `parallel for`, so Host
// mode drops them with a warning.
var deviceOnly = []string{"map(", "is_device_ptr(", "num_teams("}

var (
	fpOnce sync.Once
	fp     string
)

// Fingerprint returns a short stable hash of the translation tables. Script
// handlers that call into this package fold it into their declared version
// (batch.RegisterScriptVersioned), so editing a table entry invalidates
// every cached outcome the translator helped produce.
func Fingerprint() string {
	fpOnce.Do(func() {
		h := sha256.New()
		names := make([]string, 0, len(directiveMap))
		for name := range directiveMap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := directiveMap[name]
			fmt.Fprintf(h, "d:%s=%s|%s\n", name, m[Host], m[Offload])
		}
		names = names[:0]
		for name := range clauseMap {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, "c:%s=%s\n", name, clauseMap[name])
		}
		fmt.Fprintf(h, "host-drops:%s\n", strings.Join(deviceOnly, " "))
		fp = hex.EncodeToString(h.Sum(nil))[:12]
	})
	return fp
}

// Warning describes a directive or clause the translator dropped or
// approximated.
type Warning struct {
	What string
	Why  string
}

// Translate converts an OpenACC directive body into an OpenMP directive
// body. The returned string excludes "#pragma omp ". An empty string means
// the directive has no OpenMP equivalent and the pragma should be removed.
func Translate(body string, mode Mode) (string, []Warning, error) {
	d, err := ParseDirective(body)
	if err != nil {
		return "", nil, err
	}
	var warns []Warning
	heads, ok := directiveMap[d.Name]
	if !ok {
		return "", warns, fmt.Errorf("unknown OpenACC directive %q", d.Name)
	}
	head := heads[mode]
	if head == "" {
		warns = append(warns, Warning{What: d.Name, Why: "no host-mode OpenMP equivalent; dropped"})
		return "", warns, nil
	}
	parts := []string{head}
	simd := false
	for _, c := range d.Clauses {
		tmpl, ok := clauseMap[c.Name]
		if !ok {
			warns = append(warns, Warning{What: c.Name, Why: "unknown clause; dropped"})
			continue
		}
		if tmpl == "" {
			if c.Name != "seq" && c.Name != "independent" && c.Name != "auto" {
				warns = append(warns, Warning{What: c.Name, Why: "no OpenMP equivalent; dropped"})
			}
			continue
		}
		if mode == Host && slices.ContainsFunc(deviceOnly, func(p string) bool { return strings.HasPrefix(tmpl, p) }) {
			warns = append(warns, Warning{What: c.Name, Why: "device-only in OpenMP; dropped in host mode"})
			continue
		}
		if tmpl == "simd" {
			simd = true
			continue
		}
		if strings.Contains(tmpl, "%s") {
			if c.Arg == "" {
				warns = append(warns, Warning{What: c.Name, Why: "missing argument; dropped"})
				continue
			}
			parts = append(parts, fmt.Sprintf(tmpl, c.Arg))
		} else {
			parts = append(parts, tmpl)
		}
	}
	if simd {
		// append simd to the loop construct
		parts[0] = strings.TrimSpace(parts[0] + " simd")
	}
	return strings.Join(parts, " "), warns, nil
}
