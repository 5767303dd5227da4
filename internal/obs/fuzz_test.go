package obs

import (
	"strings"
	"testing"
)

// FuzzParseTraceParent checks the traceparent parser on arbitrary header
// values: it never panics, every accepted trace and span ID is 1 to 32
// lowercase hex chars, and the canonical header built from an accepted
// pair parses back to the same pair.
func FuzzParseTraceParent(f *testing.F) {
	f.Add("00-0123456789abcdef-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add(" 00-abcd-ef01-00 ")
	f.Add("00-" + strings.Repeat("a", 33) + "-ef01-01")
	f.Add("00-ABCD-ef01-01")
	f.Add("00--ef01-01")
	f.Fuzz(func(t *testing.T, v string) {
		traceID, spanID, ok := ParseTraceParent(v)
		if !ok {
			if traceID != "" || spanID != "" {
				t.Fatalf("rejected %q but returned (%q, %q)", v, traceID, spanID)
			}
			return
		}
		for _, id := range []string{traceID, spanID} {
			if id == "" || len(id) > 32 || strings.Trim(id, "0123456789abcdef") != "" {
				t.Fatalf("accepted %q with ID %q", v, id)
			}
		}
		hdr := "00-" + traceID + "-" + spanID + "-01"
		if t2, s2, ok := ParseTraceParent(hdr); !ok || t2 != traceID || s2 != spanID {
			t.Fatalf("%q parsed to (%q, %q, %v), want (%q, %q)", hdr, t2, s2, ok, traceID, spanID)
		}
	})
}
