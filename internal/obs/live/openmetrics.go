package live

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// metricName returns prefix followed by s mapped onto the OpenMetrics
// name grammar [a-zA-Z_:][a-zA-Z0-9_:]*: every illegal rune becomes '_',
// and an empty s becomes "_". It makes one allocation.
func metricName(prefix, s string) string {
	var b strings.Builder
	b.Grow(len(prefix) + len(s) + 1) // a rune never maps to more bytes
	b.WriteString(prefix)
	if s == "" {
		b.WriteByte('_')
	}
	for i, r := range s {
		if r < utf8.RuneSelf && nameByte(byte(r), i) {
			b.WriteByte(byte(r))
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// appendFloat appends a float the way the exposition format expects:
// shortest round-trip representation, with the spec spellings for the
// non-finite values.
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// ParseExposition validates OpenMetrics/Prometheus text exposition
// produced by Exporter.WriteOpenMetrics (or any conforming scrape) and
// returns the number of sample lines. It enforces the invariants a
// scraper relies on:
//
//   - every sample line parses as name[{labels}] value [timestamp];
//   - every sample belongs to a family announced by a # TYPE line, after
//     stripping the counter/histogram sample suffixes;
//   - no family is declared twice;
//   - the stream ends with the mandatory "# EOF" line and nothing after.
//
// It is the referee for the exposition golden tests and the CI telemetry
// smoke step (tools/checkexpo).
func ParseExposition(r io.Reader) (samples int, err error) {
	samples, _, err = parseExposition(r)
	return samples, err
}

// ParseExpositionFamilies validates like ParseExposition and additionally
// returns the declared family names in sorted order, so callers (e.g.
// tools/checkexpo -require) can assert that specific families made it
// into a scrape.
func ParseExpositionFamilies(r io.Reader) (samples int, families []string, err error) {
	samples, types, err := parseExposition(r)
	if err != nil {
		return 0, nil, err
	}
	families = make([]string, 0, len(types))
	for name := range types {
		families = append(families, name)
	}
	sort.Strings(families)
	return samples, families, nil
}

// maxLineBytes is the longest line the parser accepts, newline
// excluded: a line of 1 MiB or more is an error. The limit is the one
// the test-only reference parser inherits from bufio.Scanner, so the two
// agree on every input.
const maxLineBytes = 1<<20 - 1

// parseExposition reads the whole exposition into one string and scans
// it by index: every line, field and name is a substring of it, so
// parsing allocates the text and the family map, not anything per line.
func parseExposition(r io.Reader) (samples int, types map[string]string, err error) {
	var all strings.Builder
	if _, err := io.Copy(&all, r); err != nil {
		return 0, nil, err
	}
	rest := all.String()
	types = map[string]string{}
	sawEOF := false
	// last is the latest sample name found declared. Families are never
	// undeclared, and a family's samples come in runs (a histogram's
	// buckets share one name), so most lines skip the map lookups.
	last := ""
	for line := 1; rest != ""; line++ {
		text := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			text, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if len(text) > maxLineBytes {
			return 0, nil, fmt.Errorf("line %d: longer than %d bytes", line, maxLineBytes)
		}
		text = strings.TrimSuffix(text, "\r")
		if sawEOF {
			return 0, nil, fmt.Errorf("line %d: content after # EOF", line)
		}
		if text == "" {
			continue
		}
		if text[0] == '#' {
			_, f := nextField(text) // the leading "#..." field
			key, f := nextField(f)
			switch key {
			case "EOF":
				sawEOF = true
			case "TYPE", "HELP", "UNIT":
				name, f := nextField(f)
				if name == "" {
					return 0, nil, fmt.Errorf("line %d: malformed %s comment: %q", line, key, text)
				}
				if key != "TYPE" {
					continue
				}
				typ, _ := nextField(f)
				switch typ {
				case "":
					return 0, nil, fmt.Errorf("line %d: TYPE %s missing a type", line, name)
				case "counter", "gauge", "histogram", "summary", "untyped", "info", "stateset", "gaugehistogram":
				default:
					return 0, nil, fmt.Errorf("line %d: unknown metric type %q", line, typ)
				}
				if _, dup := types[name]; dup {
					return 0, nil, fmt.Errorf("line %d: family %s declared twice", line, name)
				}
				types[name] = typ
			}
			continue // free-form comment
		}
		name, err := parseSampleLine(text)
		if err != nil {
			return 0, nil, fmt.Errorf("line %d: %v", line, err)
		}
		if name != last && !declared(name, types) {
			return 0, nil, fmt.Errorf("line %d: sample %s has no # TYPE declaration", line, name)
		}
		last = name
		samples++
	}
	if !sawEOF {
		return 0, nil, fmt.Errorf("missing terminating # EOF line")
	}
	return samples, types, nil
}

// nextField returns the first white-space separated field of s and what
// follows it, splitting where strings.Fields does (unicode.IsSpace); f is
// empty when s holds no field.
func nextField(s string) (f, rest string) {
	i := 0
	for i < len(s) {
		n := spaceAt(s, i)
		if n == 0 {
			break
		}
		i += n
	}
	j := i
	for j < len(s) {
		if c := s[j]; c > ' ' && c < utf8.RuneSelf { // printable ASCII
			j++
			continue
		}
		if spaceAt(s, j) > 0 {
			break
		}
		_, n := utf8.DecodeRuneInString(s[j:])
		j += n
	}
	return s[i:j], s[j:]
}

// spaceAt returns the byte width of the white-space rune starting at
// s[i], 0 when none starts there.
func spaceAt(s string, i int) int {
	switch c := s[i]; {
	case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
		return 1
	case c < utf8.RuneSelf:
		return 0
	}
	if r, n := utf8.DecodeRuneInString(s[i:]); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// parseSampleLine checks one sample line and returns its metric name.
func parseSampleLine(text string) (string, error) {
	i := 0
	for i < len(text) && text[i] != '{' && text[i] != ' ' {
		i++
	}
	if i == 0 || i == len(text) {
		return "", fmt.Errorf("malformed sample line %q", text)
	}
	name, rest := text[:i], text[i:]
	if !validName(name) {
		return "", fmt.Errorf("invalid metric name %q", name)
	}
	if rest[0] == '{' {
		end := strings.IndexByte(rest, '}')
		if end < 0 {
			return "", fmt.Errorf("unterminated label set in %q", text)
		}
		rest = rest[end+1:]
	}
	value, rest := nextField(rest)
	stamp, rest := nextField(rest)
	if extra, _ := nextField(rest); value == "" || extra != "" {
		return "", fmt.Errorf("want 'name[{labels}] value [timestamp]', got %q", text)
	}
	if _, err := parseValue(value); err != nil {
		return "", fmt.Errorf("bad sample value %q: %v", value, err)
	}
	if stamp != "" {
		if _, err := strconv.ParseFloat(stamp, 64); err != nil {
			return "", fmt.Errorf("bad timestamp %q", stamp)
		}
	}
	return name, nil
}

// parseValue accepts exposition numbers, including the spec spellings of
// the non-finite values.
func parseValue(s string) (float64, error) {
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

// nameByte reports whether c may appear in a metric name at byte index i
// of the name: [a-zA-Z_:] anywhere, digits after the first byte.
func nameByte(c byte, i int) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
		(i > 0 && c >= '0' && c <= '9')
}

// validName reports whether s matches the metric-name grammar.
func validName(s string) bool {
	for i := 0; i < len(s); i++ {
		if !nameByte(s[i], i) {
			return false
		}
	}
	return s != ""
}

// sampleSuffixes are the structured suffixes counters and histograms
// append to their family's name in sample names.
var sampleSuffixes = [...]string{"_total", "_bucket", "_sum", "_count", "_created"}

// declared reports whether a sample name belongs to a declared family,
// directly or after stripping one of the sample suffixes.
func declared(name string, types map[string]string) bool {
	if _, ok := types[name]; ok {
		return true
	}
	for _, suf := range sampleSuffixes {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if _, ok := types[base]; ok {
				return true
			}
		}
	}
	return false
}
