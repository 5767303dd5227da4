package obs_test

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/ossm-mining/ossm/internal/obs"
	"github.com/ossm-mining/ossm/internal/oracle"
)

func TestCounterGaugeRendering(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters only go up
	g := r.GaugeVec("test_depth", "Current depth.").With()
	g.Set(2.5)
	g.Add(-0.5)
	cv := r.CounterVec("test_requests_total", "Requests by route.", "route", "status")
	cv.With("/v1/mine", "200").Add(3)
	cv.With("/v1/mine", "504").Inc()
	cv.With(`/we"ird\`, "200").Inc()
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12 })
	r.CounterFunc("test_hits_total", "Cache hits.", func() float64 { return 9 })

	var b bytes.Buffer
	if err := r.WriteExposition(&b, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP test_events_total Events seen.\n# TYPE test_events_total counter\ntest_events_total 5\n",
		"test_depth 2\n",
		`test_requests_total{route="/v1/mine",status="200"} 3`,
		`test_requests_total{route="/v1/mine",status="504"} 1`,
		`test_requests_total{route="/we\"ird\\",status="200"} 1`,
		"test_uptime_seconds 12\n",
		"test_hits_total 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	if errs := oracle.Lint(strings.NewReader(out)); errs != nil {
		t.Errorf("lint: %v", errs)
	}
	// Families render in sorted order.
	samples, err := obs.ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].Name != "test_depth" {
		t.Errorf("first sample = %s, want test_depth (sorted)", samples[0].Name)
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	cases := map[string]func(*obs.Registry){
		"duplicate":        func(r *obs.Registry) { r.GaugeVec("x", "a"); r.GaugeVec("x", "b") },
		"bad name":         func(r *obs.Registry) { r.GaugeVec("9bad", "a") },
		"bad label":        func(r *obs.Registry) { r.CounterVec("x_total", "a", "9bad") },
		"counter suffix":   func(r *obs.Registry) { r.Counter("x", "a") },
		"label arity":      func(r *obs.Registry) { r.CounterVec("x_total", "a", "l").With("a", "b") },
		"duplicate bucket": func(r *obs.Registry) { r.Histogram("h", "a", []float64{1, 1}) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn(obs.NewRegistry())
		})
	}
}

// TestHistogramProperty is the bucket-correctness property test: random
// observations against random bucket bounds must land in the first
// bucket whose bound is >= the value, +Inf must catch everything, and
// the rendered exposition must parse back to exactly the same cumulative
// counts.
func TestHistogramProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		// Random strictly increasing bounds.
		nb := 1 + rng.Intn(8)
		set := map[float64]bool{}
		for len(set) < nb {
			set[math.Round(rng.NormFloat64()*100)/10] = true
		}
		bounds := make([]float64, 0, nb)
		for b := range set {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)

		r := obs.NewRegistry()
		h := r.Histogram("prop_seconds", "Property test.", bounds)
		n := 1 + rng.Intn(200)
		wantBucket := make([]int64, nb+1)
		var wantSum float64
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 12
			if rng.Intn(10) == 0 {
				v = bounds[rng.Intn(nb)] // exactly on a bound: le is inclusive
			}
			h.Observe(v)
			wantSum += v
			idx := nb // +Inf
			for j, b := range bounds {
				if v <= b {
					idx = j
					break
				}
			}
			wantBucket[idx]++
		}

		// Direct cumulative counts.
		cum := h.Cumulative()
		var run int64
		for i := range wantBucket {
			run += wantBucket[i]
			if cum[i] != run {
				t.Fatalf("trial %d: cumulative[%d] = %d, want %d (bounds %v)", trial, i, cum[i], run, bounds)
			}
		}
		if cum[len(cum)-1] != int64(n) {
			t.Fatalf("trial %d: +Inf bucket %d != count %d", trial, cum[len(cum)-1], n)
		}
		if got := h.Count(); got != int64(n) {
			t.Fatalf("trial %d: Count = %d, want %d", trial, got, n)
		}
		if math.Abs(h.Sum()-wantSum) > 1e-6*math.Max(1, math.Abs(wantSum)) {
			t.Fatalf("trial %d: Sum = %v, want %v", trial, h.Sum(), wantSum)
		}

		// Render → parse → same cumulative counts.
		var b bytes.Buffer
		if err := r.WriteExposition(&b, false); err != nil {
			t.Fatal(err)
		}
		if errs := oracle.Lint(bytes.NewReader(b.Bytes())); errs != nil {
			t.Fatalf("trial %d: lint: %v\n%s", trial, errs, b.String())
		}
		samples, err := obs.ParseText(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		parsed := map[string]float64{}
		for _, s := range samples {
			switch s.Name {
			case "prop_seconds_bucket":
				parsed["le="+s.Label("le")] = s.Value
			case "prop_seconds_count":
				parsed["count"] = s.Value
			}
		}
		run = 0
		for i, bound := range bounds {
			run += wantBucket[i]
			key := "le=" + obs.FormatValue(bound)
			if parsed[key] != float64(run) {
				t.Fatalf("trial %d: parsed bucket %s = %v, want %d\n%s", trial, key, parsed[key], run, b.String())
			}
		}
		if parsed["le=+Inf"] != float64(n) || parsed["count"] != float64(n) {
			t.Fatalf("trial %d: +Inf/count = %v/%v, want %d", trial, parsed["le=+Inf"], parsed["count"], n)
		}
	}
}

// TestHistogramConcurrentSoak hammers one histogram vec from 40
// goroutines while renders run concurrently; run under -race (make test
// does) it is the data-race gate for the metrics hot path.
func TestHistogramConcurrentSoak(t *testing.T) {
	r := obs.NewRegistry()
	hv := r.HistogramVec("soak_seconds", "Concurrent soak.", []float64{0.25, 0.5, 0.75}, "route")
	const workers = 40
	const perWorker = 1000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two concurrent renderers exercise observe-during-render.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					if err := r.WriteExposition(io.Discard, false); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	var obsWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		obsWG.Add(1)
		go func(w int) {
			defer obsWG.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			route := "/r" + strconv.Itoa(w%4)
			for i := 0; i < perWorker; i++ {
				hv.With(route).Observe(rng.Float64())
			}
		}(w)
	}
	obsWG.Wait()
	close(stop)
	wg.Wait()

	var total int64
	for w := 0; w < 4; w++ {
		total += hv.With("/r" + strconv.Itoa(w)).Count()
	}
	if total != workers*perWorker {
		t.Fatalf("observed %d, want %d", total, workers*perWorker)
	}
	var b bytes.Buffer
	if err := r.WriteExposition(&b, false); err != nil {
		t.Fatal(err)
	}
	if errs := oracle.Lint(bytes.NewReader(b.Bytes())); errs != nil {
		t.Fatalf("lint after soak: %v", errs)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(r)
	var b bytes.Buffer
	if err := r.WriteExposition(&b, false); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(b.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Name] = s.Value
	}
	for _, name := range []string{
		"go_goroutines", "go_memstats_heap_alloc_bytes", "go_memstats_heap_sys_bytes",
		"go_memstats_heap_objects", "go_memstats_alloc_bytes_total",
		"go_gc_cycles_total", "go_gc_pause_seconds_total",
	} {
		v, ok := byName[name]
		if !ok {
			t.Errorf("missing %s", name)
		}
		if (name == "go_goroutines" || strings.Contains(name, "alloc")) && v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	if errs := oracle.Lint(bytes.NewReader(b.Bytes())); errs != nil {
		t.Errorf("lint: %v", errs)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		0:           "0",
		5:           "5",
		1048576:     "1048576",
		2.5:         "2.5",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := obs.FormatValue(in); got != want {
			t.Errorf("obs.FormatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := obs.FormatValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN renders %q", got)
	}
	if got := obs.FormatValue(math.Inf(-1)); got != "-Inf" {
		t.Errorf("-Inf renders %q", got)
	}
}

func ExampleRegistry_WriteExposition() {
	r := obs.NewRegistry()
	c := r.Counter("example_events_total", "Events processed.")
	c.Add(3)
	var b bytes.Buffer
	_ = r.WriteExposition(&b, false)
	fmt.Print(b.String())
	// Output:
	// # HELP example_events_total Events processed.
	// # TYPE example_events_total counter
	// example_events_total 3
}

func TestHistogramExemplars(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "aaaa000011112222")
	h.ObserveExemplar(0.5, "bbbb000011112222")
	h.ObserveExemplar(5, "cccc000011112222")
	h.Observe(0.06) // no exemplar: must not clobber the bucket's last trace

	// Default output carries no exemplars.
	var plain, rich bytes.Buffer
	if err := r.WriteExposition(&plain, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") {
		t.Fatal("exemplar syntax leaked into the default exposition")
	}

	if err := r.WriteExposition(&rich, true); err != nil {
		t.Fatal(err)
	}
	text := rich.String()
	for _, want := range []string{
		`le="0.1"} 2 # {trace_id="aaaa000011112222"} 0.05`,
		`le="1"} 3 # {trace_id="bbbb000011112222"} 0.5`,
		`le="+Inf"} 4 # {trace_id="cccc000011112222"} 5`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	// The rich exposition lints clean and parses back with exemplars.
	if errs := oracle.Lint(strings.NewReader(text)); len(errs) != 0 {
		t.Fatalf("exemplar exposition fails lint: %v", errs)
	}
	samples, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, s := range samples {
		if s.Exemplar != nil {
			found++
			if s.Exemplar.TraceID == "" {
				t.Errorf("parsed exemplar with empty trace id on %s", s.Name)
			}
		}
	}
	if found != 3 {
		t.Errorf("parsed %d exemplars, want 3", found)
	}
}

func TestLintExemplarViolations(t *testing.T) {
	cases := map[string]string{
		"exemplar on a gauge": `# TYPE g gauge
g 1 # {trace_id="abc"} 1
`,
		"exemplar value above the bucket bound": `# TYPE h histogram
h_bucket{le="0.1"} 1 # {trace_id="abc"} 5
h_bucket{le="+Inf"} 1
h_sum 0.05
h_count 1
`,
		"oversized exemplar label set": `# TYPE c_total counter
c_total 1 # {trace_id="` + strings.Repeat("a", 200) + `"} 1
`,
	}
	for name, in := range cases {
		if errs := oracle.Lint(strings.NewReader(in)); len(errs) == 0 {
			t.Errorf("%s: lint found no errors", name)
		}
	}
	// Control: an exemplar on a counter is legal.
	ok := `# TYPE c_total counter
c_total 1 # {trace_id="abc"} 1
`
	if errs := oracle.Lint(strings.NewReader(ok)); len(errs) != 0 {
		t.Errorf("counter exemplar flagged: %v", errs)
	}
}
