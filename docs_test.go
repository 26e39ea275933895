package lasagne_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// placeholderToken matches the tokens a results table is drafted with
// before its run exists: ALL_CAPS_WITH_UNDERSCORES names (B4_ORBITS) and
// the usual TODO markers.
var placeholderToken = regexp.MustCompile(`\b[A-Z][A-Z0-9]*_[A-Z0-9_]*[A-Z0-9]\b|\b(TODO|TBD|FIXME|XXX)\b`)

// codeSpan matches fenced code blocks and inline code, where identifiers
// such as environment variables legitimately look like placeholders.
var codeSpan = regexp.MustCompile("(?s)```.*?```|`[^`\n]*`")

// Every number in EXPERIMENTS.md must come from a run: a placeholder left
// in the prose or a table fails the build.
func TestExperimentsHaveNoPlaceholders(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := codeSpan.ReplaceAllStringFunc(string(data), func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	for i, line := range strings.Split(text, "\n") {
		for _, tok := range placeholderToken.FindAllString(line, -1) {
			t.Errorf("EXPERIMENTS.md:%d: placeholder %q", i+1, tok)
		}
	}
}
