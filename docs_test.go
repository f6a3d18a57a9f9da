package repro

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/lint"
)

// TestDocsMatchCode holds README.md and ARCHITECTURE.md to the code. It
// reads the shell commands in their fenced blocks and fails when a command
// names what the code does not have: a package, a -bench regex that matches
// no Benchmark function of a package it names, a flag a cmd/ binary does
// not define, a remp-bench experiment, or an analyzer remp-lint -list would
// not print. Every remp_… metric family either document names must be in
// internal/obs/catalog.txt, and README's stated Go minimum must be go.mod's
// go directive.
func TestDocsMatchCode(t *testing.T) {
	c := newDocChecker(t)
	for _, name := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range c.check(string(text)) {
			t.Errorf("%s:%s", name, p)
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	stated := regexp.MustCompile(`Requires Go ≥ (\d+\.\d+(?:\.\d+)?)`).FindSubmatch(readme)
	directive := regexp.MustCompile(`(?m)^go (\S+)\s*$`).FindSubmatch(gomod)
	switch {
	case stated == nil:
		t.Error(`README.md states no "Requires Go ≥ x.y"`)
	case directive == nil:
		t.Error("go.mod has no go directive")
	case string(stated[1]) != string(directive[1]):
		t.Errorf("README.md requires Go ≥ %s, go.mod's go directive is %s", stated[1], directive[1])
	}
}

// architectureCap is the most lines ARCHITECTURE.md may have: one
// paragraph per mechanism, and a mechanism that needs more says so in its
// package's doc comment.
const architectureCap = 400

// TestArchitectureFitsItsCap holds ARCHITECTURE.md to architectureCap
// lines.
func TestArchitectureFitsItsCap(t *testing.T) {
	text, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(text), "\n"); n > architectureCap {
		t.Errorf("ARCHITECTURE.md has %d lines, the cap is %d: say less per mechanism, or move the detail into the package's doc comment", n, architectureCap)
	}
}

// TestDocCheckerCatchesDrift feeds the checker one drifted line each: the
// checks above are only worth having if each of them can fail.
func TestDocCheckerCatchesDrift(t *testing.T) {
	c := newDocChecker(t)
	fence := func(cmds ...string) string { return "```bash\n" + strings.Join(cmds, "\n") + "\n```\n" }
	for _, tc := range []struct{ doc, want string }{
		{fence("go test -bench BenchmarkNoSuchThing -run '^$' ./internal/core"), "matches no Benchmark"},
		{fence("go test -bench 'Benchmark(Build|Prepare)$' ./internal/ergraph ./internal/core"), ""},
		{fence("go test -bench 'BenchmarkPrepare$' ./internal/ergraph ./internal/core"), "in ./internal/ergraph"},
		{fence("go test ./internal/nosuchpackage"), "no Go package"},
		{fence("go run ./cmd/remp-server -addr :8080 -no-such-flag x"), "remp-server has no flag -no-such-flag"},
		{fence("bin/remp-server -store disk -data-dir d -quiet &"), ""},
		{fence("/tmp/bin/remp-worker -addr :9101 -kill-after-rpcs=3 -bogus"), "remp-worker has no flag -bogus"},
		{fence("go run ./cmd/remp -tau -0.3 -dataset d-a"), ""},
		{fence("remp-bench -experiment nosuch"), `experiment "nosuch"`},
		{fence("go run ./cmd/remp-bench -experiment=all -n 20000"), ""},
		{fence("go run ./cmd/remp-lint -list", "# determinism: map order", "# nosuch: an analyzer"), `analyzer "nosuch"`},
		{fence("go run -C bench ./cmd/remp-e2e -workload all -nosuch 1"), "remp-e2e has no flag -nosuch"},
		{"see `remp_no_such_family_total` on /metrics\n", "remp_no_such_family_total"},
		{"`remp_deduce_{hits,nosuch}_total`\n", "remp_deduce_nosuch_total"},
		{"`remp_nosuch_*`\n", "remp_nosuch_*"},
		{"`remp_deduce_*`, `remp_loop_stage_seconds_count{stage=\"infer\"}`\n", ""},
	} {
		got := c.check(tc.doc)
		if tc.want == "" {
			if len(got) != 0 {
				t.Errorf("%q: unexpected problems %q", tc.doc, got)
			}
			continue
		}
		if !slices.ContainsFunc(got, func(p string) bool { return strings.Contains(p, tc.want) }) {
			t.Errorf("%q: problems %q, want one naming %q", tc.doc, got, tc.want)
		}
	}
}

// docChecker knows what the module has that a document may name. It reads
// the module from the working directory, the module root.
type docChecker struct {
	t         *testing.T
	families  []string
	exps      map[string]bool
	analyzers map[string]bool
	// binaries maps a command's name to its source directory, under cmd/
	// or bench/cmd/.
	binaries map[string]string
}

func newDocChecker(t *testing.T) *docChecker {
	c := &docChecker{t: t, exps: map[string]bool{"all": true}, analyzers: map[string]bool{}, binaries: map[string]string{}}
	catalog, err := os.ReadFile("internal/obs/catalog.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(catalog), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			c.families = append(c.families, line)
		}
	}
	for _, id := range experiments.Names() {
		c.exps[id] = true
	}
	for _, a := range lint.Analyzers() {
		c.analyzers[a.Name] = true
	}
	for _, dir := range []string{"cmd", "bench/cmd"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				c.binaries[e.Name()] = path.Join(dir, e.Name())
			}
		}
	}
	return c
}

// check returns the document's problems, each as "line: what".
func (c *docChecker) check(doc string) []string {
	var probs []string
	lines := strings.Split(doc, "\n")
	for _, b := range fencedBlocks(lines) {
		for _, cmd := range shellCommands(b) {
			for _, p := range c.checkCommand(cmd) {
				probs = append(probs, fmt.Sprintf("%d: %s", cmd.line, p))
			}
		}
	}
	for i, line := range lines {
		for _, m := range metricRef.FindAllString(line, -1) {
			for _, name := range expandBraces(m) {
				if !c.hasFamily(name) {
					probs = append(probs, fmt.Sprintf("%d: metric %s is not in internal/obs/catalog.txt", i+1, name))
				}
			}
		}
	}
	return probs
}

// metricRef matches a metric family as a document writes it: a name, a
// shell-style {a,b} alternation, or a trailing * for a prefix.
var metricRef = regexp.MustCompile(`remp_[a-z0-9_]*(?:\{[a-z0-9_,]+\}[a-z0-9_]*)*\*?`)

func (c *docChecker) hasFamily(name string) bool {
	if prefix, ok := strings.CutSuffix(name, "*"); ok {
		return slices.ContainsFunc(c.families, func(f string) bool { return strings.HasPrefix(f, prefix) })
	}
	for _, series := range []string{"", "_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, series); ok && slices.Contains(c.families, base) {
			return true
		}
	}
	return false
}

// expandBraces expands the first {a,b} of s, recursively.
func expandBraces(s string) []string {
	lo := strings.IndexByte(s, '{')
	hi := strings.IndexByte(s, '}')
	if lo < 0 || hi < lo {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[lo+1:hi], ",") {
		out = append(out, expandBraces(s[:lo]+alt+s[hi+1:])...)
	}
	return out
}

type fencedBlock struct {
	lang  string
	line  int // of the first line inside the fence
	lines []string
}

// fencedBlocks returns the document's ``` blocks; indented fences (inside
// a list item) count.
func fencedBlocks(lines []string) []fencedBlock {
	var blocks []fencedBlock
	var cur *fencedBlock
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "```") {
			if cur != nil {
				cur.lines = append(cur.lines, line)
			}
			continue
		}
		if cur == nil {
			cur = &fencedBlock{lang: strings.TrimPrefix(trimmed, "```"), line: i + 2}
			continue
		}
		blocks = append(blocks, *cur)
		cur = nil
	}
	return blocks
}

// shellCommand is one simple command of a block: its words, the comment
// lines that follow it (what the docs show as its output), and its line.
type shellCommand struct {
	words  []string
	output []string
	line   int
}

// shellCommands splits a shell block into simple commands: lines joined at
// a trailing backslash, comments dropped, and each line cut at |, &, ;, &&,
// || and redirections. A whole-line comment is output of the command
// before it. Blocks in another language yield nothing.
func shellCommands(b fencedBlock) []shellCommand {
	if b.lang != "" && b.lang != "bash" {
		return nil
	}
	var cmds []shellCommand
	for i := 0; i < len(b.lines); i++ {
		start := i
		line := strings.TrimSpace(b.lines[i])
		for strings.HasSuffix(line, `\`) && i+1 < len(b.lines) {
			i++
			line = strings.TrimSuffix(line, `\`) + " " + strings.TrimSpace(b.lines[i])
		}
		if strings.HasPrefix(line, "#") {
			if len(cmds) > 0 {
				last := &cmds[len(cmds)-1]
				last.output = append(last.output, strings.TrimSpace(strings.TrimPrefix(line, "#")))
			}
			continue
		}
		for _, words := range splitShell(line) {
			// Leading VAR=value assignments are not the command.
			for len(words) > 0 && strings.Contains(words[0], "=") && !strings.HasPrefix(words[0], "-") {
				words = words[1:]
			}
			if len(words) > 0 {
				cmds = append(cmds, shellCommand{words: words, line: b.line + start})
			}
		}
	}
	return cmds
}

// splitShell splits one line into the word lists of its simple commands.
// Quotes group, an unquoted # starts a comment, operators separate
// commands, and a redirection drops its target.
func splitShell(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	inWord, quote, skipNext := false, byte(0), false
	flush := func() {
		if inWord {
			if !skipNext {
				words = append(words, word.String())
			}
			skipNext = false
		}
		word.Reset()
		inWord = false
	}
	for i := 0; i < len(line); i++ {
		ch := line[i]
		switch {
		case quote != 0:
			if ch == quote {
				quote = 0
			} else {
				word.WriteByte(ch)
			}
		case ch == '\'' || ch == '"':
			quote, inWord = ch, true
		case ch == ' ' || ch == '\t':
			flush()
		case ch == '#' && !inWord:
			i = len(line)
		case ch == '|' || ch == '&' || ch == ';':
			flush()
			cmds = append(cmds, words)
			words = nil
		case ch == '>' || ch == '<':
			flush()
			skipNext = true
		default:
			word.WriteByte(ch)
			inWord = true
		}
	}
	flush()
	return append(cmds, words)
}

func (c *docChecker) checkCommand(cmd shellCommand) []string {
	name := path.Base(cmd.words[0])
	switch {
	case name == "go" && len(cmd.words) > 1:
		return c.checkGo(cmd)
	case c.binaries[name] != "":
		return c.checkBinary(name, cmd.words[1:], cmd.output)
	}
	return nil
}

// goValueFlags are the go command's flags (and go test's) that take the
// next word as their value.
var goValueFlags = map[string]bool{
	"C": true, "o": true, "bench": true, "benchtime": true, "run": true, "count": true,
	"timeout": true, "cpu": true, "fuzz": true, "fuzztime": true, "coverprofile": true,
	"cpuprofile": true, "memprofile": true, "memprofilerate": true, "tags": true, "p": true,
	"parallel": true, "trace": true, "skip": true, "exec": true,
}

// checkGo checks a go build, run, test or vet command: every package it names
// exists, its -bench regex matches a Benchmark in each, and go run's
// arguments are flags of the binary it runs.
func (c *docChecker) checkGo(cmd shellCommand) []string {
	sub, args := cmd.words[1], cmd.words[2:]
	switch sub {
	case "build", "run", "test", "vet":
	default:
		return nil
	}
	var probs []string
	dir, bench := ".", ""
	var pkgs []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pkgs = append(pkgs, a)
			if sub == "run" {
				probs = append(probs, c.checkRun(path.Join(dir, a), args[i+1:], cmd.output)...)
				break
			}
			continue
		}
		name, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if !hasVal && goValueFlags[name] && i+1 < len(args) {
			i++
			val = args[i]
		}
		switch name {
		case "C":
			dir = val
		case "bench":
			bench = val
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	for _, p := range pkgs {
		dirs := c.packageDirs(path.Join(dir, p))
		if len(dirs) == 0 {
			probs = append(probs, fmt.Sprintf("go %s: %s is no Go package", sub, p))
			continue
		}
		if bench != "" && sub == "test" {
			if err := c.benchMatches(bench, dirs); err != "" {
				probs = append(probs, fmt.Sprintf("go test -bench %s %s in %s", bench, err, p))
			}
		}
	}
	return probs
}

// checkRun checks the arguments of `go run pkg` when pkg is a binary.
func (c *docChecker) checkRun(pkg string, args, output []string) []string {
	for name, dir := range c.binaries {
		if path.Clean(pkg) == dir {
			return c.checkBinary(name, args, output)
		}
	}
	return nil
}

// packageDirs resolves a package path (relative to the module root, a
// trailing /... matching every package below) to the directories holding
// its Go files. A nested module (bench/) is not below the root's ./... .
func (c *docChecker) packageDirs(p string) []string {
	p = strings.TrimPrefix(p, "repro/")
	base, all := strings.CutSuffix(p, "/...")
	if p == "..." {
		base, all = ".", true
	}
	root := filepath.FromSlash(base)
	if !all {
		if hasGoFiles(root) {
			return []string{root}
		}
		return nil
	}
	var dirs []string
	filepath.WalkDir(root, func(d string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return nil
		}
		if d != root && (e.Name() == "testdata" || fileExists(filepath.Join(d, "go.mod"))) {
			return filepath.SkipDir
		}
		if hasGoFiles(d) {
			dirs = append(dirs, d)
		}
		return nil
	})
	return dirs
}

func hasGoFiles(dir string) bool {
	m, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	return len(m) > 0
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// benchMatches reports how regex fails to select a benchmark among the
// package directories dirs, or "". As go test does, the regex's first
// slash-separated element is matched against the top-level Benchmark
// functions.
func (c *docChecker) benchMatches(regex string, dirs []string) string {
	re, err := regexp.Compile(firstBenchLevel(regex))
	if err != nil {
		return "does not compile: " + err.Error()
	}
	for _, d := range dirs {
		for _, f := range c.parseDir(d, true) {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Benchmark") && re.MatchString(fn.Name.Name) {
					return ""
				}
			}
		}
	}
	return "matches no Benchmark function"
}

// firstBenchLevel cuts a -bench regex at its first slash outside brackets
// and parentheses.
func firstBenchLevel(regex string) string {
	depth := 0
	for i, ch := range regex {
		switch ch {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '/':
			if depth == 0 {
				return regex[:i]
			}
		}
	}
	return regex
}

// parseDir parses dir's Go files: its _test.go files when tests is set,
// else the others.
func (c *docChecker) parseDir(dir string, tests bool) []*ast.File {
	names, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	var files []*ast.File
	for _, n := range names {
		if strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), n, nil, parser.SkipObjectResolution)
		if err != nil {
			c.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// binaryFlags reads a command's flag set from its source: each call of a
// flag constructor (flag.String, fs.IntVar, …) with a literal name. The
// value is whether the flag is boolean, so takes no separate value word.
func (c *docChecker) binaryFlags(name string) map[string]bool {
	flags := map[string]bool{"h": true, "help": true}
	for _, f := range c.parseDir(filepath.FromSlash(c.binaries[name]), false) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagConstructor.MatchString(sel.Sel.Name) {
				return true
			}
			arg := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				arg = 1
			}
			if len(call.Args) <= arg {
				return true
			}
			if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					flags[s] = strings.HasPrefix(sel.Sel.Name, "Bool")
				}
			}
			return true
		})
	}
	return flags
}

var flagConstructor = regexp.MustCompile(`^(String|Int|Int64|Uint|Uint64|Float64|Duration|Bool)(Var)?$|^(Text)?Var$|^(Bool)?Func$`)

// checkBinary checks a binary's arguments against its flag set, and the
// values the docs give remp-bench -experiment and the analyzer names shown
// as remp-lint -list's output.
func (c *docChecker) checkBinary(name string, args, output []string) []string {
	flags := c.binaryFlags(name)
	var probs []string
	list := false
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			break
		}
		if len(a) < 2 || a[0] != '-' {
			continue
		}
		fname, val, hasVal := strings.Cut(strings.TrimLeft(a, "-"), "=")
		isBool, ok := flags[fname]
		if !ok {
			probs = append(probs, fmt.Sprintf("%s has no flag -%s", name, fname))
			continue
		}
		if !hasVal && !isBool && i+1 < len(args) {
			i++
			val = args[i]
		}
		switch {
		case name == "remp-bench" && fname == "experiment" && !c.exps[val]:
			probs = append(probs, fmt.Sprintf("remp-bench has no experiment %q (want all or one of %v)", val, experiments.Names()))
		case name == "remp-lint" && fname == "list":
			list = true
		}
	}
	if list {
		for _, out := range output {
			if analyzer, _, ok := strings.Cut(out, ":"); ok && !c.analyzers[analyzer] {
				probs = append(probs, fmt.Sprintf("remp-lint has no analyzer %q", analyzer))
			}
		}
	}
	return probs
}
