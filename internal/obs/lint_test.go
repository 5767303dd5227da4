package obs_test

import (
	"strings"
	"testing"

	"github.com/ossm-mining/ossm/internal/oracle"
)

func TestLintCleanExposition(t *testing.T) {
	in := `# HELP req_total Requests.
# TYPE req_total counter
req_total{route="/a"} 3
req_total{route="/b"} 1
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 2
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 1.5
lat_seconds_count 4
# TYPE depth gauge
depth 7
`
	if errs := oracle.Lint(strings.NewReader(in)); errs != nil {
		t.Errorf("clean exposition flagged: %v", errs)
	}
}

func TestLintViolations(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"sample without TYPE", "orphan 1\n", "no preceding TYPE"},
		{"counter without _total", "# TYPE bad counter\nbad 1\n", "should end in _total"},
		{"HELP after TYPE", "# TYPE g gauge\n# HELP g late help\ng 1\n", "does not immediately precede"},
		{"duplicate TYPE", "# TYPE g gauge\ng 1\n# TYPE g gauge\n", "second TYPE"},
		{"duplicate HELP", "# HELP g a\n# HELP g b\n# TYPE g gauge\ng 1\n", "second HELP"},
		{"unknown type", "# TYPE g thing\ng 1\n", "unknown TYPE"},
		{"interleaved families", "# TYPE g gauge\ng 1\n# TYPE h gauge\nh 1\ng 2\n", "must be contiguous"},
		{"non-cumulative histogram", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "not cumulative"},
		{"missing +Inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n", "no +Inf bucket"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n", "_count 4 != +Inf bucket 5"},
		{"missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n", "missing _sum"},
		{"missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\n", "missing _count"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "without le"},
		{"bad le", "# TYPE h histogram\nh_bucket{le=\"x\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "unparseable le"},
		{"parse error", "broken{ 1\n", "unterminated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := oracle.Lint(strings.NewReader(tc.in))
			if errs == nil {
				t.Fatalf("no violation for:\n%s", tc.in)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("errors %v do not mention %q", errs, tc.want)
			}
		})
	}
}

// TestLintPerLabelSetHistograms: each label set of a histogram family is
// linted as its own cumulative series.
func TestLintPerLabelSetHistograms(t *testing.T) {
	in := `# TYPE h histogram
h_bucket{route="/a",le="1"} 1
h_bucket{route="/a",le="+Inf"} 2
h_sum{route="/a"} 0.5
h_count{route="/a"} 2
h_bucket{route="/b",le="1"} 4
h_bucket{route="/b",le="+Inf"} 4
h_sum{route="/b"} 2
h_count{route="/b"} 3
`
	errs := oracle.Lint(strings.NewReader(in))
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), `h{route=/b}`) {
		t.Errorf("want exactly the /b count mismatch, got %v", errs)
	}
}
