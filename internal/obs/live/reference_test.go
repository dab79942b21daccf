package live

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// refParseExposition is the exposition validator as it was written
// before the index-scanning parser: bufio.Scanner lines, strings.Fields
// and a sanitizeName round trip per metric name. It is kept only as the
// referee of FuzzParseExposition, which requires the two to agree on
// every input: accept or reject, the sample count and the family list.
func refParseExposition(r io.Reader) (samples int, families []string, err error) {
	sc := bufio.NewScanner(r)
	// The old parser started from a 64 KiB buffer; the limit, not the
	// start, decides what is accepted, and a small start keeps the fuzzer
	// fast.
	sc.Buffer(nil, 1<<20)
	types := map[string]string{}
	sawEOF := false
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if sawEOF {
			return 0, nil, fmt.Errorf("line %d: content after # EOF", line)
		}
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && fields[1] == "EOF" {
				sawEOF = true
				continue
			}
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP" || fields[1] == "UNIT") {
				if len(fields) < 3 {
					return 0, nil, fmt.Errorf("line %d: malformed %s comment: %q", line, fields[1], text)
				}
				if fields[1] == "TYPE" {
					name := fields[2]
					if len(fields) < 4 {
						return 0, nil, fmt.Errorf("line %d: TYPE %s missing a type", line, name)
					}
					switch fields[3] {
					case "counter", "gauge", "histogram", "summary", "untyped", "info", "stateset", "gaugehistogram":
					default:
						return 0, nil, fmt.Errorf("line %d: unknown metric type %q", line, fields[3])
					}
					if _, dup := types[name]; dup {
						return 0, nil, fmt.Errorf("line %d: family %s declared twice", line, name)
					}
					types[name] = fields[3]
				}
				continue
			}
			continue // free-form comment
		}
		name, err := refParseSampleLine(text)
		if err != nil {
			return 0, nil, fmt.Errorf("line %d: %v", line, err)
		}
		if refFamilyOf(name, types) == "" {
			return 0, nil, fmt.Errorf("line %d: sample %s has no # TYPE declaration", line, name)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if !sawEOF {
		return 0, nil, fmt.Errorf("missing terminating # EOF line")
	}
	families = make([]string, 0, len(types))
	for name := range types {
		families = append(families, name)
	}
	sort.Strings(families)
	return samples, families, nil
}

func refParseSampleLine(text string) (string, error) {
	rest := text
	i := strings.IndexAny(rest, "{ ")
	if i <= 0 {
		return "", fmt.Errorf("malformed sample line %q", text)
	}
	name := rest[:i]
	if name == "" || name != refSanitizeName(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	rest = rest[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", fmt.Errorf("unterminated label set in %q", text)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", fmt.Errorf("want 'name[{labels}] value [timestamp]', got %q", text)
	}
	if _, err := refParseValue(fields[0]); err != nil {
		return "", fmt.Errorf("bad sample value %q: %v", fields[0], err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			return "", fmt.Errorf("bad timestamp %q", fields[1])
		}
	}
	return name, nil
}

func refFamilyOf(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suf := range []string{"_total", "_bucket", "_sum", "_count", "_created"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, declared := types[base]; declared {
				return base
			}
		}
	}
	return ""
}

func refSanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func refParseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}
