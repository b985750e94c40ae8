package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata golden files")

// TestJSONGolden locks the -json output format: the full registry over
// every fixture, byte-for-byte. Regenerate with `go test -run JSONGolden
// -update ./internal/analysis`.
func TestJSONGolden(t *testing.T) {
	_, pkgs := loadAllFixtures(t)
	diags := RunAnalyzers("", pkgs, Registry())

	data, err := json.MarshalIndent(diags, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden := filepath.Join("testdata", "golden.json")
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
		t.Errorf("JSON output drifted from golden file.\n-- got --\n%s\n-- want --\n%s", data, want)
	}

	// The JSON form must round-trip losslessly.
	var back []Diagnostic
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, diags) {
		t.Error("diagnostics do not survive a JSON round trip")
	}
}
