package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/all.golden")

var (
	durationToken = regexp.MustCompile(`\b(\d+(\.\d+)?(ns|µs|us|ms|s|m|h))+`)
	speedupToken  = regexp.MustCompile(`speedup +\d+\.\d+x`)
	spaceRun      = regexp.MustCompile(` {2,}`)
)

// normalizeTimings strips what varies from run to run in the experiments'
// output: every Go duration, every speedup ratio, and the column padding
// that follows their widths.
func normalizeTimings(out string) string {
	out = durationToken.ReplaceAllString(out, "<dur>")
	out = speedupToken.ReplaceAllString(out, "speedup <x>")
	return spaceRun.ReplaceAllString(out, " ")
}

// TestExperimentsGolden pins the paper-facing output of every experiment,
// timings aside, against testdata/all.golden. -update rewrites the file.
func TestExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	All(&buf, 1)
	got := normalizeTimings(buf.String())
	path := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(-update rewrites the file)", path, i+1, g, w)
		}
	}
}
