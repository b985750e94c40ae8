package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchFile is the part of BENCHMARK.json the bound check reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readResults returns the result lines of r: every line that parses as
// a result object with metrics.
func readResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res result
		if err := json.Unmarshal([]byte(line), &res); err != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// values collects one metric across results.
func values(results []result, name string) []float64 {
	var out []float64
	for _, r := range results {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// checkBounds applies the acceptance rule: every end-to-end metric
// keeps its quartile spread within its bound in each set, and
// the second set's median is no worse than the first's by more than the
// bound. It returns one line per metric and whether all passed.
func checkBounds(b benchFile, first, second []result) ([]string, bool) {
	var lines []string
	pass := true
	sets := [][]result{first}
	if second != nil {
		sets = append(sets, second)
	}
	for _, m := range b.EndToEnd {
		line := fmt.Sprintf("%-26s bound %.3f", m.Name, m.Bound)
		for i, set := range sets {
			vs := values(set, m.Name)
			if len(vs) != len(set) {
				line += fmt.Sprintf("  set %d: missing in %d results", i+1, len(set)-len(vs))
				pass = false
				continue
			}
			sp, err := spread(vs)
			if err != nil {
				line += fmt.Sprintf("  set %d: %v", i+1, err)
				pass = false
				continue
			}
			line += fmt.Sprintf("  set %d: median %.6g spread %.4f", i+1, median(vs), sp)
			if sp > m.Bound {
				line += " SPREAD>BOUND"
				pass = false
			}
		}
		if second != nil {
			w := worsening(values(first, m.Name), values(second, m.Name), m.Better)
			line += fmt.Sprintf("  worse by %.4f", w)
			if w > m.Bound {
				line += " WORSE>BOUND"
				pass = false
			}
		}
		lines = append(lines, line)
	}
	return lines, pass
}

// spreadMain is the -spread mode.
func spreadMain(benchPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) < 1 || len(files) > 2 {
		fmt.Fprintf(stderr, "pgaperf: -spread needs one or two result files\n")
		return 2
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "pgaperf: %v\n", err)
		return 2
	}
	var b benchFile
	if err := json.Unmarshal(data, &b); err != nil {
		fmt.Fprintf(stderr, "pgaperf: %s: %v\n", benchPath, err)
		return 2
	}
	sets := make([][]result, 2)
	for i, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			fmt.Fprintf(stderr, "pgaperf: %v\n", err)
			return 2
		}
		sets[i], err = readResults(fh)
		fh.Close()
		if err != nil {
			fmt.Fprintf(stderr, "pgaperf: %s: %v\n", f, err)
			return 2
		}
	}
	lines, pass := checkBounds(b, sets[0], sets[1])
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if !pass {
		return 1
	}
	return 0
}
