package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestSARIFGolden locks the -sarif output format over the full fixture
// set, byte-for-byte. Regenerate with `go test -run SARIFGolden -update
// ./internal/analysis`.
func TestSARIFGolden(t *testing.T) {
	_, pkgs := loadAllFixtures(t)
	registry := Registry()
	diags := RunAnalyzers("", pkgs, registry)

	data, err := SARIF(diags, registry)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden := filepath.Join("testdata", "golden.sarif")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("SARIF output drifted from golden.\n-- got --\n%s\n-- want --\n%s", data, want)
	}

	// Shape checks a SARIF consumer relies on: version, one run, a rule
	// entry for every registered analyzer plus the ignore check, and
	// every result referencing a declared rule id.
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q runs %d, want 2.1.0 and exactly 1", log.Version, len(log.Runs))
	}
	ids := map[string]bool{}
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		ids[r.ID] = true
	}
	if len(ids) != len(registry)+1 || !ids["ignore"] {
		t.Errorf("rule table has %d ids (want %d incl. ignore)", len(ids), len(registry)+1)
	}
	if len(log.Runs[0].Results) != len(diags) {
		t.Errorf("results %d, want %d", len(log.Runs[0].Results), len(diags))
	}
	for _, r := range log.Runs[0].Results {
		if !ids[r.RuleID] {
			t.Errorf("result references undeclared rule %q", r.RuleID)
		}
	}
}
