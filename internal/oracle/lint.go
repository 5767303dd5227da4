package oracle

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/ossm-mining/ossm/internal/obs"
)

// The exposition format's name grammar, kept apart from the registry's
// own registration checks so a linted document is judged independently
// of the code that wrote it.
var (
	metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// histogram sample suffixes owned by a `# TYPE x histogram` family.
var histSuffixes = []string{"_bucket", "_sum", "_count"}

// Lint checks a text exposition the way promtool's strict lint would, in
// pure Go: HELP precedes TYPE, every sample follows its family's TYPE,
// families are contiguous and declared once, names are valid, counters
// end in _total, and histogram bucket series are cumulative with a +Inf
// bucket equal to _count. Samples are parsed by obs.ParseText. It
// returns every violation found (nil = clean).
func Lint(r io.Reader) []error {
	doc, err := io.ReadAll(r)
	if err != nil {
		return []error{err}
	}
	samples, err := obs.ParseText(bytes.NewReader(doc))
	if err != nil {
		return []error{err}
	}
	var errs []error
	addf := func(num int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", num, fmt.Sprintf(format, args...)))
	}

	types := map[string]string{}      // family -> type
	helped := map[string]bool{}       // family -> HELP seen
	closed := map[string]bool{}       // family blocks already left
	current := ""                     // family of the current block
	lastHelp := ""                    // family of an immediately preceding HELP
	hist := map[string][]obs.Sample{} // histogram family -> its samples

	enter := func(num int, fam string) {
		if fam == current {
			return
		}
		if current != "" {
			closed[current] = true
		}
		if closed[fam] {
			addf(num, "family %s reappears after other families (samples must be contiguous)", fam)
		}
		current = fam
	}

	sc := bufio.NewScanner(bytes.NewReader(doc))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for num := 1; sc.Scan(); num++ {
		line := strings.TrimRight(sc.Text(), " \t")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 {
				continue
			}
			family, text := fields[2], ""
			if len(fields) == 4 {
				text = fields[3]
			}
			switch fields[1] {
			case "HELP":
				if !metricNameRE.MatchString(family) {
					addf(num, "invalid metric name %q in HELP", family)
				}
				if helped[family] {
					addf(num, "second HELP for %s", family)
				}
				if _, typed := types[family]; typed {
					addf(num, "HELP for %s does not immediately precede its TYPE", family)
				}
				helped[family] = true
				lastHelp = family
				enter(num, family)
			case "TYPE":
				kind := strings.TrimSpace(text)
				if _, dup := types[family]; dup {
					addf(num, "second TYPE for %s", family)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					addf(num, "unknown TYPE %q for %s", kind, family)
				}
				if helped[family] && lastHelp != family {
					addf(num, "HELP for %s does not immediately precede its TYPE", family)
				}
				types[family] = kind
				if kind == "counter" && !strings.HasSuffix(family, "_total") {
					addf(num, "counter %s should end in _total", family)
				}
				lastHelp = ""
				enter(num, family)
			}
			continue
		}
		// ParseText yields one sample per non-blank, non-comment line, in
		// document order.
		s := samples[0]
		samples = samples[1:]
		lastHelp = ""
		if !metricNameRE.MatchString(s.Name) {
			addf(num, "invalid metric name %q", s.Name)
			continue
		}
		for name := range s.Labels {
			if !labelNameRE.MatchString(name) {
				addf(num, "invalid label name %q on %s", name, s.Name)
			}
		}
		fam, ok := familyOf(s.Name, types)
		if !ok {
			addf(num, "sample %s has no preceding TYPE", s.Name)
			continue
		}
		enter(num, fam)
		if ex := s.Exemplar; ex != nil {
			isBucket := types[fam] == "histogram" && strings.HasSuffix(s.Name, "_bucket")
			if !isBucket && types[fam] != "counter" {
				addf(num, "exemplar on %s: exemplars belong on histogram buckets or counters", s.Name)
			}
			if isBucket {
				if le, err := strconv.ParseFloat(s.Labels["le"], 64); err == nil && ex.Value > le {
					addf(num, "exemplar value %v on %s exceeds bucket le=%v", ex.Value, s.Name, le)
				}
			}
		}
		if types[fam] == "histogram" {
			hist[fam] = append(hist[fam], s)
		}
	}
	if err := sc.Err(); err != nil {
		return append(errs, err)
	}

	for _, fam := range sortedKeys(hist) {
		lintHistogram(fam, hist[fam], &errs)
	}
	return errs
}

// familyOf resolves a sample name to its declared family: an exact TYPE
// match, or a histogram parent for _bucket/_sum/_count suffixes.
func familyOf(name string, types map[string]string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suf := range histSuffixes {
		if base, found := strings.CutSuffix(name, suf); found {
			if types[base] == "histogram" {
				return base, true
			}
		}
	}
	return "", false
}

// lintHistogram checks one histogram family's series shape per label set:
// le present and parseable on every bucket, cumulative counts
// non-decreasing in le order, +Inf present, and _count == the +Inf
// bucket.
func lintHistogram(fam string, samples []obs.Sample, errs *[]error) {
	type series struct {
		les    []float64
		counts map[float64]float64
		count  *float64
		sum    bool
	}
	bySet := map[string]*series{}
	get := func(s obs.Sample) *series {
		var parts []string
		for _, k := range sortedKeys(s.Labels) {
			if k == "le" {
				continue
			}
			parts = append(parts, k+"="+s.Labels[k])
		}
		key := strings.Join(parts, ",")
		sr, ok := bySet[key]
		if !ok {
			sr = &series{counts: map[float64]float64{}}
			bySet[key] = sr
		}
		return sr
	}
	for _, s := range samples {
		sr := get(s)
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			leStr, ok := s.Labels["le"]
			if !ok {
				*errs = append(*errs, fmt.Errorf("%s: bucket sample without le label", fam))
				continue
			}
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				*errs = append(*errs, fmt.Errorf("%s: unparseable le %q", fam, leStr))
				continue
			}
			sr.les = append(sr.les, le)
			sr.counts[le] = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			v := s.Value
			sr.count = &v
		case strings.HasSuffix(s.Name, "_sum"):
			sr.sum = true
		}
	}
	for _, key := range sortedKeys(bySet) {
		sr := bySet[key]
		where := fam
		if key != "" {
			where = fam + "{" + key + "}"
		}
		sort.Float64s(sr.les)
		prev := -1.0
		for i, le := range sr.les {
			if i > 0 && sr.counts[le] < prev {
				*errs = append(*errs, fmt.Errorf("%s: bucket counts not cumulative at le=%v", where, le))
			}
			prev = sr.counts[le]
		}
		n := len(sr.les)
		if n == 0 || !isInf(sr.les[n-1]) {
			*errs = append(*errs, fmt.Errorf("%s: no +Inf bucket", where))
			continue
		}
		if sr.count == nil {
			*errs = append(*errs, fmt.Errorf("%s: missing _count", where))
		} else if *sr.count != sr.counts[sr.les[n-1]] {
			*errs = append(*errs, fmt.Errorf("%s: _count %v != +Inf bucket %v", where, *sr.count, sr.counts[sr.les[n-1]]))
		}
		if !sr.sum {
			*errs = append(*errs, fmt.Errorf("%s: missing _sum", where))
		}
	}
}

func isInf(v float64) bool { return v > 1e308 }

func sortedKeys[M map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
