package obs

import (
	"strings"
	"testing"
)

func TestParseTextSamples(t *testing.T) {
	in := `# HELP a_total Things.
# TYPE a_total counter
a_total 5
# TYPE b gauge
b{route="/v1/mine",q="x\"y\\z\n"} 2.5 1712345678
# some free-form comment
`
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 {
		t.Fatalf("parsed %d samples, want 2", len(samples))
	}
	if samples[0].Name != "a_total" || samples[0].Value != 5 {
		t.Errorf("sample 0 = %+v", samples[0])
	}
	s := samples[1]
	if s.Name != "b" || s.Value != 2.5 || s.Label("route") != "/v1/mine" {
		t.Errorf("sample 1 = %+v", s)
	}
	if s.Label("q") != "x\"y\\z\n" {
		t.Errorf("unescaped label = %q", s.Label("q"))
	}
}

func TestParseTextErrors(t *testing.T) {
	cases := map[string]string{
		"no value":       "a_total\n",
		"bad value":      "a_total x\n",
		"open labels":    `a_total{x="y" 5` + "\n",
		"unquoted label": `a_total{x=y} 5` + "\n",
		"bad escape":     `a_total{x="\q"} 5` + "\n",
		"extra fields":   "a_total 5 6 7\n",
	}
	for name, in := range cases {
		if _, err := ParseText(strings.NewReader(in)); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}
