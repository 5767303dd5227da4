package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/oracle"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

var traceIDRE = regexp.MustCompile(`trace_id="[0-9a-f]+"`)

// maskExemplars replaces every exemplar trace id with a fixed token, so
// the golden pins the exemplar syntax and placement without depending on
// the id scheme.
func maskExemplars(text string) string {
	return traceIDRE.ReplaceAllString(text, `trace_id="<TRACE>"`)
}

// TestExemplarExpositionGolden pins the OpenMetrics-style exemplar
// exposition byte-for-byte (trace ids masked): which bucket lines carry
// the `# {trace_id=...} value` suffix, the suffix's shape, and that the
// plain exposition of the same registry stays exemplar-free.
func TestExemplarExpositionGolden(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("req_seconds", "Request latency.", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "aaaa0000111122223333444455556666")
	h.ObserveExemplar(0.5, "bbbb0000111122223333444455556666")
	h.ObserveExemplar(5, "cccc0000111122223333444455556666")
	h.Observe(0.02) // no trace in flight: bucket counts move, exemplar stays
	c := r.Counter("req_total", "Requests served.")
	c.Add(4)

	var rich bytes.Buffer
	if err := r.WriteExposition(&rich, true); err != nil {
		t.Fatal(err)
	}
	if errs := oracle.Lint(bytes.NewReader(rich.Bytes())); len(errs) != 0 {
		t.Fatalf("exemplar exposition fails lint: %v", errs)
	}
	samples, err := obs.ParseText(bytes.NewReader(rich.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	withExemplar := 0
	for _, s := range samples {
		if s.Exemplar != nil {
			if !strings.HasSuffix(s.Name, "_bucket") {
				t.Errorf("exemplar on non-bucket sample %s", s.Name)
			}
			withExemplar++
		}
	}
	if withExemplar != 3 {
		t.Fatalf("parsed %d exemplars, want 3", withExemplar)
	}

	// The plain exposition of the same registry carries no exemplars.
	var plain bytes.Buffer
	if err := r.WriteExposition(&plain, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") {
		t.Fatal("exemplar leaked into the plain exposition")
	}

	got := maskExemplars(rich.String())
	path := filepath.Join("testdata", "exemplars.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("exemplar exposition drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
