package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitPosn(t *testing.T) {
	cases := []struct {
		in        string
		file      string
		line, col int
	}{
		{"/repo/internal/sim/s.go:25:2", "/repo/internal/sim/s.go", 25, 2},
		{"/repo/internal/sim/s.go:25", "/repo/internal/sim/s.go", 25, 0},
		{"s.go:1:1", "s.go", 1, 1},
	}
	for _, c := range cases {
		file, line, col := splitPosn(c.in)
		if file != c.file || line != c.line || col != c.col {
			t.Errorf("splitPosn(%q) = (%q,%d,%d), want (%q,%d,%d)", c.in, file, line, col, c.file, c.line, c.col)
		}
	}
}

func TestParseVetJSON(t *testing.T) {
	stream := `# ubscache/internal/sim
# [ubscache/internal/sim]
{
	"ubscache/internal/sim": {
		"wallclocktaint": [
			{"posn": "/root/repo/internal/sim/s.go:25:2", "message": "tainted sink"}
		],
		"determinism": [
			{"posn": "/root/repo/internal/sim/s.go:30:4", "message": "global rand"}
		]
	}
}
{
	"ubscache/internal/serve": {
		"ctxleak": [
			{"posn": "/root/repo/internal/serve/s.go:9:1", "message": "leaked goroutine"}
		]
	}
}
`
	findings, err := parseVetJSON(strings.NewReader(stream), "/root/repo")
	if err != nil {
		t.Fatalf("parseVetJSON: %v", err)
	}
	if len(findings) != 3 {
		t.Fatalf("got %d findings, want 3", len(findings))
	}
	for _, f := range findings {
		if filepath.IsAbs(f.File) {
			t.Errorf("finding file %q not normalized repo-relative", f.File)
		}
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	findings := []finding{
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 9, Message: "leaked goroutine"},
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 40, Message: "leaked goroutine"},
		{Analyzer: "mutexguard", File: "internal/serve/q.go", Line: 7, Message: "unlocked access"},
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := writeBaseline(path, findings); err != nil {
		t.Fatalf("writeBaseline: %v", err)
	}

	// Identical findings (even at shifted lines) are fully covered.
	shifted := []finding{
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 11, Message: "leaked goroutine"},
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 45, Message: "leaked goroutine"},
		{Analyzer: "mutexguard", File: "internal/serve/q.go", Line: 7, Message: "unlocked access"},
	}
	if stale := applyBaseline(path, shifted); len(stale) != 0 {
		t.Errorf("unexpected stale entries: %+v", stale)
	}
	for _, f := range shifted {
		if !f.Baselined {
			t.Errorf("finding %+v not baselined", f)
		}
	}

	// A fixed finding leaves a stale entry; a new one stays unbaselined.
	next := []finding{
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 11, Message: "leaked goroutine"},
		{Analyzer: "wallclocktaint", File: "internal/runner/r.go", Line: 3, Message: "tainted sink"},
	}
	stale := applyBaseline(path, next)
	if len(stale) != 2 { // one ctxleak occurrence + the mutexguard entry
		t.Errorf("got %d stale entries, want 2: %+v", len(stale), stale)
	}
	if !next[0].Baselined {
		t.Errorf("known finding not suppressed")
	}
	if next[1].Baselined {
		t.Errorf("new finding wrongly suppressed")
	}
}

func TestEmitSARIF(t *testing.T) {
	findings := []finding{
		{Analyzer: "ctxleak", File: "internal/serve/s.go", Line: 9, Column: 2, Message: "leaked goroutine"},
		{Analyzer: "misspath", File: "internal/mem/m.go", Line: 1, Message: "baselined away", Baselined: true},
	}
	var sb strings.Builder
	emitSARIF(&sb, findings, "/root/repo")
	var log sarifLog
	if err := json.Unmarshal([]byte(sb.String()), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ubslint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != 8 {
		t.Errorf("rule table has %d rules, want the full 8-analyzer roster", len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 1 {
		t.Fatalf("got %d results, want 1 (baselined findings are suppressed)", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "ctxleak" || res.Locations[0].PhysicalLocation.ArtifactLocation.URI != "internal/serve/s.go" {
		t.Errorf("unexpected result: %+v", res)
	}
	if res.Locations[0].PhysicalLocation.ArtifactLocation.URIBaseID != "%SRCROOT%" {
		t.Errorf("uriBaseId = %q", res.Locations[0].PhysicalLocation.ArtifactLocation.URIBaseID)
	}
}
