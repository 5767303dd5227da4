package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample line.
type Sample struct {
	Name     string
	Labels   map[string]string
	Value    float64
	Exemplar *Exemplar // OpenMetrics `# {...} value` suffix, if present
}

// Label returns the named label value, or "".
func (s Sample) Label(name string) string { return s.Labels[name] }

// ParseText parses a text exposition into its samples, in document
// order. Blank lines and comments (HELP and TYPE included) are skipped.
func ParseText(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for num := 1; sc.Scan(); num++ {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", num, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseSampleLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name runs to the first '{' or whitespace.
	end := strings.IndexAny(rest, "{ \t")
	if end < 0 {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = rest[:end]
	rest = rest[end:]
	if strings.HasPrefix(rest, "{") {
		close := -1
		inQuote, escaped := false, false
		for i := 1; i < len(rest); i++ {
			c := rest[i]
			switch {
			case escaped:
				escaped = false
			case inQuote && c == '\\':
				escaped = true
			case c == '"':
				inQuote = !inQuote
			case !inQuote && c == '}':
				close = i
			}
			if close >= 0 {
				break
			}
		}
		if close < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	// An OpenMetrics exemplar rides after the value as
	// ` # {labels} value [timestamp]`; split it off before parsing the
	// sample's own value/timestamp fields.
	if hash := strings.Index(rest, "#"); hash >= 0 {
		ex, err := parseExemplar(strings.TrimSpace(rest[hash+1:]))
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
		s.Exemplar = ex
		rest = rest[:hash]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // value, optional timestamp
		return s, fmt.Errorf("want `value [timestamp]` after %q, got %q", s.Name, rest)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// parseExemplar parses the body after an exemplar's '#' marker:
// `{labels} value [timestamp]`.
func parseExemplar(body string) (*Exemplar, error) {
	if !strings.HasPrefix(body, "{") {
		return nil, fmt.Errorf("exemplar %q does not start with a label set", body)
	}
	close := -1
	inQuote, escaped := false, false
	for i := 1; i < len(body) && close < 0; i++ {
		switch c := body[i]; {
		case escaped:
			escaped = false
		case inQuote && c == '\\':
			escaped = true
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			close = i
		}
	}
	if close < 0 {
		return nil, fmt.Errorf("unterminated exemplar label set in %q", body)
	}
	labels, err := parseLabels(body[1:close])
	if err != nil {
		return nil, fmt.Errorf("exemplar labels: %w", err)
	}
	runes := 0
	for name, val := range labels {
		if !labelNameRE.MatchString(name) {
			return nil, fmt.Errorf("invalid exemplar label name %q", name)
		}
		runes += len([]rune(name)) + len([]rune(val))
	}
	if runes > 128 {
		return nil, fmt.Errorf("exemplar label set exceeds 128 runes (%d)", runes)
	}
	fields := strings.Fields(body[close+1:])
	if len(fields) < 1 || len(fields) > 2 { // value, optional timestamp
		return nil, fmt.Errorf("want `value [timestamp]` after exemplar labels, got %q", body[close+1:])
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value %q: %v", fields[0], err)
	}
	return &Exemplar{TraceID: labels["trace_id"], Value: v}, nil
}

func parseLabels(body string) (map[string]string, error) {
	out := map[string]string{}
	i := 0
	for i < len(body) {
		eq := strings.IndexByte(body[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair without '=' in %q", body[i:])
		}
		name := strings.TrimSpace(body[i : i+eq])
		i += eq + 1
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("label %q value is not quoted", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(body) {
				return nil, fmt.Errorf("unterminated value for label %q", name)
			}
			c := body[i]
			if c == '\\' {
				if i+1 >= len(body) {
					return nil, fmt.Errorf("dangling escape in label %q", name)
				}
				switch body[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("unknown escape \\%c in label %q", body[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		out[name] = val.String()
		if i < len(body) && body[i] == ',' {
			i++
		}
	}
	return out, nil
}
