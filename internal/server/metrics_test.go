package server

import (
	"regexp"
	"strings"
	"testing"
	"time"
)

// metricLine matches one sample of the Prometheus text exposition format with
// strictly legal label escaping: inside a quoted label value only \\, \" and
// \n may follow a backslash, and raw " or newline must not appear.
var metricLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\\\|\\"|\\n)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\\\|\\"|\\n)*")*\})? \S+$`)

// TestMetricsLabelEscaping feeds dataset names containing quotes, backslashes
// and newlines through the exposition and asserts every emitted sample line
// stays parseable. The old %q formatting emitted Go escapes (like \t)
// that Prometheus parsers reject, and raw newlines in a label would split one
// sample into two unparseable lines.
func TestMetricsLabelEscaping(t *testing.T) {
	m := newMetrics()
	nasty := []string{
		`quote"inside`,
		`back\slash`,
		"new\nline",
		"tab\there", // raw tab is legal inside a label value, must pass through
		`all"three\of"them` + "\n.",
	}
	for _, name := range nasty {
		m.observe(name, statusOK, 5*time.Millisecond)
	}
	reg := &Registry{datasets: map[string]*Dataset{}}

	var b strings.Builder
	m.writeTo(&b, reg, newAnswerCache(), nil, nil)
	body := b.String()

	for _, want := range []string{
		`dataset="quote\"inside"`,
		`dataset="back\\slash"`,
		`dataset="new\nline"`,
		"dataset=\"tab\there\"",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing escaped label %s\n%s", want, body)
		}
	}
	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !metricLine.MatchString(line) {
			t.Errorf("line %d not parseable as a metric sample: %q", i+1, line)
		}
	}
}

func TestEscapeLabel(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`a"b`, `a\"b`},
		{`a\b`, `a\\b`},
		{"a\nb", `a\nb`},
		{`\"`, `\\\"`},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
