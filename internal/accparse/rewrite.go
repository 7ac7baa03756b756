package accparse

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Global-to-thread-local analysis (paper §3.1): because IMPACC implements
// MPI tasks as user-level threads sharing one process, every global and
// function-static variable in the input program must become thread-local,
// or tasks would corrupt each other's state. findGlobals locates those
// declarations; RewriteThreadLocal emits the transformed source with
// __thread storage added.

// cTypeWords starts-a-declaration heuristic.
var cTypeWords = map[string]bool{
	"int": true, "long": true, "short": true, "char": true, "float": true,
	"double": true, "unsigned": true, "signed": true, "size_t": true,
	"int8_t": true, "int16_t": true, "int32_t": true, "int64_t": true,
	"uint8_t": true, "uint16_t": true, "uint32_t": true, "uint64_t": true,
	"bool": true, "void": true, "MPI_Comm": true, "MPI_Request": true,
	"MPI_Status": true, "MPI_Datatype": true, "FILE": true,
}

// stripComments removes // and /* */ comments, preserving line structure.
func stripComments(src string) string {
	var sb strings.Builder
	i := 0
	for i < len(src) {
		switch {
		case strings.HasPrefix(src[i:], "//"):
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case strings.HasPrefix(src[i:], "/*"):
			i += 2
			for i < len(src) && !strings.HasPrefix(src[i:], "*/") {
				if src[i] == '\n' {
					sb.WriteByte('\n')
				}
				i++
			}
			i += 2
		case src[i] == '"':
			sb.WriteByte(src[i])
			i++
			for i < len(src) && src[i] != '"' {
				if src[i] == '\\' {
					sb.WriteByte(src[i])
					i++
				}
				if i < len(src) {
					sb.WriteByte(src[i])
					i++
				}
			}
			if i < len(src) {
				sb.WriteByte('"')
				i++
			}
		default:
			sb.WriteByte(src[i])
			i++
		}
	}
	return sb.String()
}

// declName extracts the declared identifier from a declaration body
// (text between the type words and ';' / '=' / '[').
func declName(rest string) string {
	rest = strings.TrimLeft(rest, "* \t")
	end := len(rest)
	for i, c := range rest {
		if !(c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')) {
			end = i
			break
		}
	}
	return rest[:end]
}

// declNames extracts every declarator of a possibly comma-separated
// declaration body ("buf0[1024], buf1[1024]" -> buf0, buf1), splitting on
// top-level commas only.
func declNames(body string) []string {
	var names []string
	depth := 0
	start := 0
	emit := func(piece string) {
		if n := declName(strings.TrimSpace(piece)); n != "" {
			names = append(names, n)
		}
	}
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '(', '[', '{':
			depth++
		case ')', ']', '}':
			depth--
		case ',':
			if depth == 0 {
				emit(body[start:i])
				start = i + 1
			}
		}
	}
	emit(body[start:])
	return names
}

// findGlobals scans C-like source for file-scope variables and
// function-scope statics.
func findGlobals(src string) []GlobalVar {
	clean := stripComments(src)
	var out []GlobalVar
	depth := 0
	for lineNo, raw := range strings.Split(clean, "\n") {
		line := strings.TrimSpace(raw)
		depthAtStart := depth
		depth += strings.Count(line, "{") - strings.Count(line, "}")

		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, ";") {
			continue // declarations of interest end on their line
		}
		words := strings.Fields(line)
		if len(words) < 2 {
			continue
		}
		first := words[0]
		static := first == "static"
		if static {
			words = words[1:]
			if len(words) < 2 {
				continue
			}
			first = words[0]
		}
		switch first {
		case "extern", "typedef", "return", "struct", "union", "enum", "const":
			if first != "const" {
				continue
			}
			words = words[1:]
			if len(words) < 2 {
				continue
			}
			first = words[0]
		}
		if !cTypeWords[first] {
			continue
		}
		// Skip prototypes/calls: '(' before any '='.
		body := strings.Join(words[1:], " ")
		if p := strings.IndexByte(body, '('); p >= 0 {
			if e := strings.IndexByte(body, '='); e < 0 || p < e {
				continue
			}
		}
		for _, name := range declNames(strings.TrimSuffix(body, ";")) {
			if depthAtStart == 0 {
				out = append(out, GlobalVar{Name: name, Decl: line, Line: lineNo + 1, Static: static})
			} else if static {
				out = append(out, GlobalVar{Name: name, Decl: line, Line: lineNo + 1, Static: true})
			}
		}
	}
	return out
}

// RewriteThreadLocal returns the source with __thread storage class added
// to every global and static variable declaration, making each MPI task's
// copy private (the paper's compiler transformation).
func RewriteThreadLocal(src string) (string, []GlobalVar) {
	globals := findGlobals(src)
	byLine := map[int]GlobalVar{}
	for _, g := range globals {
		byLine[g.Line] = g
	}
	lines := strings.Split(src, "\n")
	for i := range lines {
		g, ok := byLine[i+1]
		if !ok {
			continue
		}
		trimmed := strings.TrimLeft(lines[i], " \t")
		indent := lines[i][:len(lines[i])-len(trimmed)]
		if g.Static {
			lines[i] = indent + afterStatic(trimmed)
		} else {
			lines[i] = indent + "__thread " + trimmed
		}
	}
	return strings.Join(lines, "\n"), globals
}

// afterStatic inserts __thread after the storage class of a static
// declaration line: after the first "static" that ends at a blank, as
// findGlobals split the words, else after the first "static" at all. A
// line whose static keyword a comment splits gets __thread in front.
func afterStatic(line string) string {
	at := -1
	for i := 0; ; {
		j := strings.Index(line[i:], "static")
		if j < 0 {
			break
		}
		k := i + j + len("static")
		if at < 0 {
			at = k
		}
		if r, _ := utf8.DecodeRuneInString(line[k:]); unicode.IsSpace(r) {
			at = k
			break
		}
		i = k
	}
	if at < 0 {
		return "__thread " + line
	}
	return line[:at] + " __thread" + line[at:]
}
