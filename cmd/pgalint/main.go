// Command pgalint runs the framework's static-analysis suite
// (internal/analysis) over the module: determinism and concurrency
// contracts the compiler cannot check.
//
// Usage:
//
//	pgalint [-json] [-sarif] [-graph] [-rules] [-time] [-deadline d]
//	        [-rulebudget d] [-timemd file] [-baseline file] [packages]
//
// With no arguments it lints every package of the enclosing module
// (equivalent to ./...). Package patterns are module-relative:
// "./...", "./internal/...", "./internal/island". Exit status is 0 when
// no findings survive suppression, 1 when there are findings (or a
// budget is exceeded, or the suppression baseline is breached), and 2
// on a load failure.
//
// -graph skips linting entirely and dumps the interprocedural call
// graph (functions, closures, call/spawn/ref edges) as JSON — the same
// graph the summary engine propagates effect facts over.
//
// -sarif emits findings as a SARIF 2.1.0 log for GitHub code scanning;
// -time reports per-rule wall time on stderr; -deadline fails the run
// when analysis (load + lint) exceeds the given budget, keeping the CI
// gate honest about linter cost. -rulebudget fails the run when any
// single rule exceeds the given budget — the deadline bounds the whole
// suite, the rule budget catches one rule quietly going quadratic.
// -timemd appends the per-rule timing table as GitHub-flavored markdown
// to the named file (pass "$GITHUB_STEP_SUMMARY" in CI for a job
// summary).
//
// -baseline is the suppression ratchet: the named file holds the
// checked-in count of //pgalint:ignore directives ("#" comments and
// blank lines skipped). If the module now carries more directives than
// the baseline the run fails — new suppressions need a reviewed
// baseline bump, so the ignore count can only drift down silently,
// never up. When the count drops, pgalint prints a reminder to ratchet
// the baseline down.
//
// Suppress a finding with a justification comment on or directly above
// the offending line:
//
//	//pgalint:ignore rule why this specific pattern is provably safe
//
// The justification is mandatory: a bare directive is itself reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pga/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	graphOut := flag.Bool("graph", false, "dump the interprocedural call graph as JSON and exit")
	rules := flag.Bool("rules", false, "list the registered rules and exit")
	timing := flag.Bool("time", false, "report per-rule wall time on stderr")
	deadline := flag.Duration("deadline", 0, "fail if load+lint exceeds this duration (0 = no budget)")
	ruleBudget := flag.Duration("rulebudget", 0, "fail if any single rule exceeds this duration (0 = no budget)")
	timeMD := flag.String("timemd", "", "append the per-rule timing table as markdown to this file")
	baseline := flag.String("baseline", "", "suppression-ratchet file: fail if //pgalint:ignore count exceeds it")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pgalint [-json] [-sarif] [-graph] [-rules] [-time] [-deadline d] [-rulebudget d] [-timemd file] [-baseline file] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	registry := analysis.Registry()
	if *rules {
		for _, a := range registry {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	start := time.Now()
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := analysis.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	pkgs, err := filterPackages(mod, flag.Args())
	if err != nil {
		fatal(err)
	}

	if *graphOut {
		data, err := analysis.BuildGraph(pkgs).JSON(mod.Root, mod.Fset)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
		return
	}

	diags, timings := analysis.RunAnalyzersTimed(mod.Root, pkgs, registry,
		func() int64 { return time.Now().UnixNano() })

	if *timing {
		for _, rt := range timings {
			fmt.Fprintf(os.Stderr, "pgalint: %-14s %8.1fms\n",
				rt.Rule, float64(rt.Nanos)/1e6)
		}
		fmt.Fprintf(os.Stderr, "pgalint: %-14s %8.1fms (load + lint)\n",
			"total", float64(time.Since(start))/1e6)
	}
	if *timeMD != "" {
		if err := writeTimingMarkdown(*timeMD, timings, time.Since(start), *ruleBudget); err != nil {
			fatal(err)
		}
	}

	switch {
	case *sarifOut:
		data, err := analysis.SARIF(diags, registry)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", data)
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	default:
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}

	failed := false
	if len(diags) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "pgalint: %d finding(s)\n", len(diags))
		}
		failed = true
	}
	if *deadline > 0 {
		if elapsed := time.Since(start); elapsed > *deadline {
			fmt.Fprintf(os.Stderr, "pgalint: analysis took %v, over the %v deadline\n",
				elapsed.Round(time.Millisecond), *deadline)
			failed = true
		}
	}
	if *ruleBudget > 0 {
		for _, rt := range timings {
			if d := time.Duration(rt.Nanos); d > *ruleBudget {
				fmt.Fprintf(os.Stderr, "pgalint: rule %s took %v, over the %v per-rule budget\n",
					rt.Rule, d.Round(time.Millisecond), *ruleBudget)
				failed = true
			}
		}
	}
	if *baseline != "" {
		if err := checkBaseline(*baseline, analysis.CountIgnoreDirectives(pkgs)); err != nil {
			fmt.Fprintf(os.Stderr, "pgalint: %v\n", err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeTimingMarkdown appends the per-rule timing table to path as a
// GitHub-flavored markdown table (the CI job points this at
// $GITHUB_STEP_SUMMARY). Rows over the per-rule budget are flagged.
func writeTimingMarkdown(path string, timings []analysis.RuleTiming, total, budget time.Duration) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	b.WriteString("### pgalint timing\n\n| rule | wall time | budget |\n|---|---:|---|\n")
	for _, rt := range timings {
		status := ""
		if budget > 0 {
			status = "ok"
			if time.Duration(rt.Nanos) > budget {
				status = fmt.Sprintf("**over %v**", budget)
			}
		}
		fmt.Fprintf(&b, "| %s | %.1fms | %s |\n", rt.Rule, float64(rt.Nanos)/1e6, status)
	}
	fmt.Fprintf(&b, "| **total (load + lint)** | %.1fms | |\n\n", float64(total)/1e6)
	_, err = f.WriteString(b.String())
	return err
}

// checkBaseline enforces the suppression ratchet: the count of
// //pgalint:ignore directives in the linted packages must not exceed
// the integer recorded in the baseline file. Growth fails the run;
// shrinkage earns a reminder to ratchet the recorded count down.
func checkBaseline(path string, count int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	recorded := -1
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return fmt.Errorf("baseline %s: %q is not an integer", path, line)
		}
		recorded = n
		break
	}
	if recorded < 0 {
		return fmt.Errorf("baseline %s: no count found", path)
	}
	switch {
	case count > recorded:
		return fmt.Errorf("suppression ratchet: %d //pgalint:ignore directive(s), baseline allows %d — fix the findings or bump %s with review",
			count, recorded, path)
	case count < recorded:
		fmt.Fprintf(os.Stderr, "pgalint: note: %d //pgalint:ignore directive(s), baseline allows %d — ratchet %s down\n",
			count, recorded, path)
	}
	return nil
}

// filterPackages selects the module packages matching the command-line
// patterns. Patterns are module-relative paths, with "..." matching any
// suffix; no patterns (or "./...") selects everything. A pattern that
// matches nothing is an error — a typo'd path in CI must not silently
// gate zero packages.
func filterPackages(mod *analysis.Module, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return mod.Pkgs, nil
	}
	var out []*analysis.Package
	seen := map[string]bool{}
	for _, raw := range patterns {
		pat := strings.TrimPrefix(raw, "./")
		pat = strings.TrimSuffix(pat, "/")
		matched := false
		for _, pkg := range mod.Pkgs {
			if !matchPattern(mod.Path, pat, pkg.Path) {
				continue
			}
			matched = true
			if !seen[pkg.Path] {
				seen[pkg.Path] = true
				out = append(out, pkg)
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matched no packages", raw)
		}
	}
	return out, nil
}

// matchPattern matches a module-relative pattern against an import path.
func matchPattern(modPath, pat, pkgPath string) bool {
	if pat == "..." || pat == "." {
		return true
	}
	full := modPath
	if base := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/"); base != "" {
		full = modPath + "/" + base
	}
	if strings.HasSuffix(pat, "...") {
		return pkgPath == full || strings.HasPrefix(pkgPath, full+"/")
	}
	return pkgPath == full
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pgalint: %v\n", err)
	os.Exit(2)
}
