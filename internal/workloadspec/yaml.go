package workloadspec

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// parseYAML decodes the small YAML subset mix files use — block mappings,
// block sequences ("- " items), scalars (null/bool/int/float/quoted and
// bare strings), "#" comments, and two-space-style indentation nesting —
// into the generic value shape encoding/json produces (map[string]any,
// []any, string, float64/int64, bool, nil). Keeping the decoder to this
// subset avoids a YAML dependency while covering the multi-client spec
// grammar; anything fancier (anchors, flow collections, multi-line
// scalars, documents) is rejected with a line-numbered error, and so is
// text that is not UTF-8, which the JSON re-encoding would rewrite.
func parseYAML(data []byte) (interface{}, error) {
	p := &yamlParser{}
	for num, raw := range strings.Split(string(data), "\n") {
		if !utf8.ValidString(raw) {
			return nil, fmt.Errorf("yaml line %d: invalid UTF-8", num+1)
		}
		line := strings.TrimRight(raw, " \r")
		stripped := stripComment(line)
		if strings.TrimSpace(stripped) == "" {
			continue
		}
		indent := len(stripped) - len(strings.TrimLeft(stripped, " "))
		if strings.Contains(stripped[:indent]+" ", "\t") || strings.HasPrefix(strings.TrimSpace(stripped), "\t") {
			return nil, fmt.Errorf("yaml line %d: tab indentation not supported", num+1)
		}
		if strings.ContainsRune(stripped, '\t') {
			return nil, fmt.Errorf("yaml line %d: tab characters not supported", num+1)
		}
		p.lines = append(p.lines, yamlLine{indent: indent, text: strings.TrimSpace(stripped), num: num + 1})
	}
	if len(p.lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	v, err := p.parseBlock(p.lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.lines) {
		return nil, fmt.Errorf("yaml line %d: unexpected indentation", p.lines[p.pos].num)
	}
	return v, nil
}

type yamlLine struct {
	indent int
	text   string
	num    int
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseBlock parses the run of lines at exactly the given indentation as
// a mapping or a sequence, consuming deeper lines as nested blocks.
func (p *yamlParser) parseBlock(indent int) (interface{}, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("yaml: unexpected end of document")
	}
	ln := p.lines[p.pos]
	if ln.indent != indent {
		return nil, fmt.Errorf("yaml line %d: unexpected indentation", ln.num)
	}
	if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseSequence(indent int) (interface{}, error) {
	var out []interface{}
	for p.pos < len(p.lines) && p.lines[p.pos].indent == indent {
		ln := p.lines[p.pos]
		switch {
		case ln.text == "-":
			// Item is the nested block on the following deeper lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				return nil, fmt.Errorf("yaml line %d: empty sequence item", ln.num)
			}
			v, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		case strings.HasPrefix(ln.text, "- "):
			// Inline item: rewrite "- x" as "x" two columns deeper and let
			// the item parse as a block starting on this same line — the
			// standard treatment of "-" as indentation.
			p.lines[p.pos] = yamlLine{indent: indent + 2, text: ln.text[2:], num: ln.num}
			v, err := p.parseBlock(indent + 2)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		default:
			return out, nil
		}
	}
	return out, nil
}

func (p *yamlParser) parseMapping(indent int) (interface{}, error) {
	out := map[string]interface{}{}
	for p.pos < len(p.lines) && p.lines[p.pos].indent == indent {
		ln := p.lines[p.pos]
		if strings.HasPrefix(ln.text, "- ") || ln.text == "-" {
			return out, nil
		}
		key, rest, err := splitKey(ln)
		if err != nil {
			return nil, err
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("yaml line %d: duplicate key %q", ln.num, key)
		}
		p.pos++
		if rest != "" {
			out[key] = scalar(rest)
			continue
		}
		// "key:" introduces a nested block — or an explicit empty value at
		// the end of the document / before a shallower line.
		if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
			out[key] = nil
			continue
		}
		v, err := p.parseBlock(p.lines[p.pos].indent)
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
	return out, nil
}

// splitKey splits "key: value" (or "key:"), rejecting flow collections
// and non-mapping lines.
func splitKey(ln yamlLine) (key, rest string, err error) {
	i := strings.Index(ln.text, ":")
	if i < 0 {
		return "", "", fmt.Errorf("yaml line %d: expected \"key: value\"", ln.num)
	}
	key = strings.TrimSpace(ln.text[:i])
	rest = strings.TrimSpace(ln.text[i+1:])
	if key == "" {
		return "", "", fmt.Errorf("yaml line %d: empty key", ln.num)
	}
	if strings.HasPrefix(key, "\"") || strings.HasPrefix(key, "'") {
		unq, uerr := unquote(key)
		if uerr != nil {
			return "", "", fmt.Errorf("yaml line %d: %v", ln.num, uerr)
		}
		key = unq
	}
	if strings.HasPrefix(rest, "{") || strings.HasPrefix(rest, "[") || strings.HasPrefix(rest, "&") ||
		strings.HasPrefix(rest, "*") || strings.HasPrefix(rest, "|") || strings.HasPrefix(rest, ">") {
		return "", "", fmt.Errorf("yaml line %d: flow/anchor/block-scalar syntax not supported", ln.num)
	}
	return key, rest, nil
}

// scalar interprets a value string: null, booleans, integers, floats,
// quoted strings, and bare strings.
func scalar(s string) interface{} {
	switch s {
	case "null", "~", "Null", "NULL":
		return nil
	case "true", "True", "TRUE":
		return true
	case "false", "False", "FALSE":
		return false
	}
	if strings.HasPrefix(s, "\"") || strings.HasPrefix(s, "'") {
		if unq, err := unquote(s); err == nil {
			return unq
		}
		return s
	}
	if i, err := strconv.ParseInt(s, 0, 64); err == nil {
		return i
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	return s
}

// unquote strips matched single or double quotes.
func unquote(s string) (string, error) {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("bad quoted string %s", s)
		}
		return unq, nil
	}
	return "", fmt.Errorf("unbalanced quotes in %s", s)
}

// stripComment removes a trailing "# ..." comment, respecting quotes. A
// '#' only starts a comment at the beginning of the line or after a
// space, per YAML.
func stripComment(line string) string {
	var inS, inD bool
	for i, r := range line {
		switch {
		case r == '\'' && !inD:
			inS = !inS
		case r == '"' && !inS:
			inD = !inD
		case r == '#' && !inS && !inD:
			if i == 0 || line[i-1] == ' ' {
				return line[:i]
			}
		}
	}
	return line
}
