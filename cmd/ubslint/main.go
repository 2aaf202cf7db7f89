// Command ubslint checks the repository's simulator invariants with the
// eight-analyzer go/analysis suite in internal/analysis: five syntactic
// rules (misspath, determinism, hotpathalloc, atomicfield, snapstate)
// and three CFG-dataflow rules (wallclocktaint, ctxleak, mutexguard).
//
// It speaks the go vet tool protocol, so the low-level invocation is
//
//	go build -o /tmp/ubslint ./cmd/ubslint
//	go vet -vettool=/tmp/ubslint ./...
//
// Invoking it directly with package patterns runs the multichecker
// driver: it re-execs the go command with itself as the vet tool,
// parses the diagnostics, subtracts the committed baseline, and renders
// the survivors:
//
//	ubslint ./...                     # human-readable, exit 1 on findings
//	ubslint -json ./...               # machine-readable JSON findings
//	ubslint -sarif ./...              # SARIF 2.1.0 (CI code-scanning upload)
//	ubslint -write-baseline ./...     # regenerate lint/baseline.json
//	ubslint -misspath ./internal/...  # run a single analyzer
//
// The baseline (default lint/baseline.json under the module root, or
// -baseline <path>) holds known findings as {analyzer, file, message}
// fingerprints — line numbers are deliberately excluded so unrelated
// edits do not shift the baseline. Findings covered by the baseline are
// suppressed; anything new exits 1; stale entries (baselined findings
// that no longer fire) are reported to stderr so the baseline only ever
// shrinks deliberately.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"ubscache/internal/analysis/ubslint"
)

func main() {
	args := os.Args[1:]
	// Vet-tool invocations end in a *.cfg file (and the go command's
	// protocol probes are flag-only: -flags, -V=full). Anything with a
	// trailing package pattern is a human: run the driver.
	if len(args) > 0 && !strings.HasSuffix(args[len(args)-1], ".cfg") && !strings.HasPrefix(args[len(args)-1], "-") {
		os.Exit(driver(args))
	}
	unitchecker.Main(ubslint.Analyzers()...)
}

// finding is one diagnostic after normalization: File is repo-relative.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Baselined marks findings fingerprinted in the baseline; they are
	// suppressed from output and do not affect the exit status.
	Baselined bool `json:"baselined,omitempty"`
}

// fingerprint is the baseline identity: no line numbers, so edits that
// only move code do not invalidate entries.
type fingerprint struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Message  string `json:"message"`
}

// baselineFile is the lint/baseline.json schema.
type baselineFile struct {
	Schema  int             `json:"schema"`
	Entries []baselineEntry `json:"entries"`
}

type baselineEntry struct {
	fingerprint
	Count int `json:"count"`
}

type options struct {
	jsonOut       bool
	sarifOut      bool
	writeBaseline bool
	baselinePath  string
	rest          []string // analyzer flags + package patterns, forwarded to go vet
}

func parseArgs(args []string) options {
	opt := options{}
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-json" || a == "--json":
			opt.jsonOut = true
		case a == "-sarif" || a == "--sarif":
			opt.sarifOut = true
		case a == "-write-baseline" || a == "--write-baseline":
			opt.writeBaseline = true
		case a == "-baseline" || a == "--baseline":
			if i+1 < len(args) {
				i++
				opt.baselinePath = args[i]
			}
		case strings.HasPrefix(a, "-baseline="):
			opt.baselinePath = strings.TrimPrefix(a, "-baseline=")
		case strings.HasPrefix(a, "--baseline="):
			opt.baselinePath = strings.TrimPrefix(a, "--baseline=")
		default:
			opt.rest = append(opt.rest, a)
		}
	}
	return opt
}

func driver(args []string) int {
	opt := parseArgs(args)

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubslint: %v\n", err)
		return 2
	}
	if opt.baselinePath == "" {
		opt.baselinePath = filepath.Join(root, "lint", "baseline.json")
	}

	findings, errOut, err := runVet(opt.rest, root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubslint: %v\n%s", err, errOut)
		return 2
	}

	if opt.writeBaseline {
		if err := writeBaseline(opt.baselinePath, findings); err != nil {
			fmt.Fprintf(os.Stderr, "ubslint: %v\n", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "ubslint: wrote %d entr%s to %s\n",
			len(findings), plural(len(findings), "y", "ies"), opt.baselinePath)
		return 0
	}

	stale := applyBaseline(opt.baselinePath, findings)
	for _, s := range stale {
		fmt.Fprintf(os.Stderr, "ubslint: stale baseline entry (no longer fires): %s %s: %s\n",
			s.Analyzer, s.File, s.Message)
	}

	fresh := 0
	for _, f := range findings {
		if !f.Baselined {
			fresh++
		}
	}

	switch {
	case opt.sarifOut:
		emitSARIF(os.Stdout, findings, root)
	case opt.jsonOut:
		emitJSON(os.Stdout, findings)
	default:
		for _, f := range findings {
			if f.Baselined {
				continue
			}
			fmt.Printf("%s:%d:%d: %s (%s)\n", f.File, f.Line, f.Column, f.Message, f.Analyzer)
		}
	}
	if fresh > 0 {
		fmt.Fprintf(os.Stderr, "ubslint: %d unbaselined finding%s\n", fresh, plural(fresh, "", "s"))
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// moduleRoot resolves the main module's directory.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runVet re-execs `go vet -vettool=self -json` over the forwarded args
// and parses the diagnostic stream. The raw stderr is returned for
// error reporting: with -json, vet reserves stderr for build failures
// and the interleaved `# pkg` progress comments.
func runVet(rest []string, root string) ([]finding, string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	vetArgs := append([]string{"vet", "-vettool=" + exe, "-json"}, rest...)
	cmd := exec.Command("go", vetArgs...)
	var out, errBuf strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	runErr := cmd.Run()

	findings, parseErr := parseVetJSON(strings.NewReader(errBuf.String()+out.String()), root)
	if parseErr != nil {
		if runErr != nil {
			return nil, errBuf.String(), runErr
		}
		return nil, errBuf.String(), parseErr
	}
	// vet -json exits 0 even with diagnostics; a non-zero exit with a
	// parseable stream means a build/type error worth surfacing.
	if runErr != nil && len(findings) == 0 {
		return nil, errBuf.String(), runErr
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, errBuf.String(), nil
}

// parseVetJSON decodes `go vet -json` output: `# pkg` comment lines
// interleaved with a sequence of {pkg: {analyzer: [diagnostics]}}
// objects.
func parseVetJSON(r io.Reader, root string) ([]finding, error) {
	var jsonText strings.Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		jsonText.WriteString(line)
		jsonText.WriteString("\n")
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	type diag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	var findings []finding
	dec := json.NewDecoder(strings.NewReader(jsonText.String()))
	for dec.More() {
		var byPkg map[string]map[string][]diag
		if err := dec.Decode(&byPkg); err != nil {
			return nil, fmt.Errorf("parsing vet -json output: %w", err)
		}
		for _, byAnalyzer := range byPkg {
			for analyzer, diags := range byAnalyzer {
				for _, d := range diags {
					file, line, col := splitPosn(d.Posn)
					if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
						file = filepath.ToSlash(rel)
					}
					findings = append(findings, finding{
						Analyzer: analyzer, File: file, Line: line, Column: col,
						Message: d.Message,
					})
				}
			}
		}
	}
	return findings, nil
}

// splitPosn parses "path/file.go:12:34" (column optional).
func splitPosn(posn string) (file string, line, col int) {
	file = posn
	if i := strings.LastIndexByte(file, ':'); i >= 0 {
		if n, err := strconv.Atoi(file[i+1:]); err == nil {
			col = n
			file = file[:i]
			if j := strings.LastIndexByte(file, ':'); j >= 0 {
				if m, err := strconv.Atoi(file[j+1:]); err == nil {
					line, col = m, n
					file = file[:j]
					return
				}
			}
			line, col = n, 0
		}
	}
	return
}

// applyBaseline consumes baseline entries against findings (marking the
// covered ones Baselined) and returns the stale leftovers. A missing or
// unreadable baseline suppresses nothing.
func applyBaseline(path string, findings []finding) []baselineEntry {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "ubslint: ignoring malformed baseline %s: %v\n", path, err)
		return nil
	}
	remaining := map[fingerprint]int{}
	for _, e := range bf.Entries {
		remaining[e.fingerprint] += e.Count
	}
	for i := range findings {
		fp := fingerprint{Analyzer: findings[i].Analyzer, File: findings[i].File, Message: findings[i].Message}
		if remaining[fp] > 0 {
			remaining[fp]--
			findings[i].Baselined = true
		}
	}
	var stale []baselineEntry
	for fp, n := range remaining {
		if n > 0 {
			stale = append(stale, baselineEntry{fingerprint: fp, Count: n})
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i], stale[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return stale
}

// writeBaseline regenerates the baseline from the current findings.
func writeBaseline(path string, findings []finding) error {
	counts := map[fingerprint]int{}
	for _, f := range findings {
		counts[fingerprint{Analyzer: f.Analyzer, File: f.File, Message: f.Message}]++
	}
	bf := baselineFile{Schema: 1, Entries: []baselineEntry{}}
	for fp, n := range counts {
		bf.Entries = append(bf.Entries, baselineEntry{fingerprint: fp, Count: n})
	}
	sort.Slice(bf.Entries, func(i, j int) bool {
		a, b := bf.Entries[i], bf.Entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// emitJSON renders the unbaselined findings as a JSON array.
func emitJSON(w io.Writer, findings []finding) {
	out := []finding{}
	for _, f := range findings {
		if !f.Baselined {
			out = append(out, f)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// SARIF 2.1.0 — the minimal subset GitHub code scanning ingests.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// emitSARIF renders the unbaselined findings as a SARIF run whose rule
// table is the full analyzer roster (so a clean run still names the
// rules that were checked).
func emitSARIF(w io.Writer, findings []finding, root string) {
	var rules []sarifRule
	for _, a := range ubslint.Analyzers() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: doc}})
	}
	results := []sarifResult{}
	for _, f := range findings {
		if f.Baselined {
			continue
		}
		line := f.Line
		if line <= 0 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifText{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.File), URIBaseID: "%SRCROOT%"},
				Region:           sarifRegion{StartLine: line, StartColumn: f.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "ubslint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&log)
}
