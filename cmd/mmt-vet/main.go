// Command mmt-vet runs the repository's custom static-analysis suite,
// the rules that machine-enforce the determinism, crypto-safety and
// hot-path invariants every figure and security claim depends on.
// `mmt-vet -list` enumerates them; internal/analyzers documents each
// where it is declared and DESIGN.md §11 gives the rationale.
//
// Usage:
//
//	mmt-vet [-list] [-run name,name] [-json] [-out file] [-fix allow-prune] [packages]
//
// With no packages, ./... relative to the module root is analyzed.
// Findings print as file:line:col: [analyzer] message; -json emits the
// byte-stable mmt-vet/v1 document (to stdout, or to -out with the human
// lines kept on stdout). Every finding carries a stable diagnostic ID
// (MMTnnn as listed, MMT900 for the suppression audit) so CI baselines
// survive renames.
//
// -fix=allow-prune lists stale //mmt:allow comments — suppressions that
// no longer suppress anything — one file:line per line, ready to feed
// an editor or a removal script.
//
// The exit status is 1 if any finding survives (suppressions via
// //mmt:allow comments are honored), 2 on driver errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mmt/internal/analyzers"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	run := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as the mmt-vet/v1 JSON document")
	outFile := flag.String("out", "", "write machine-readable output to this file instead of stdout")
	fix := flag.String("fix", "", "fix mode: 'allow-prune' lists stale //mmt:allow comments for removal")
	flag.Parse()

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-14s %s  %s\n", a.Name, a.ID, a.Doc)
		}
		return
	}
	if *fix != "" && *fix != "allow-prune" {
		fmt.Fprintf(os.Stderr, "mmt-vet: unknown -fix mode %q (have: allow-prune)\n", *fix)
		os.Exit(2)
	}
	if *run != "" {
		byName := map[string]*analyzers.Analyzer{}
		for _, a := range suite {
			byName[a.Name] = a
		}
		suite = suite[:0]
		for _, name := range strings.Split(*run, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "mmt-vet: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	root, err := analyzers.ModuleRoot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmt-vet: %v\n", err)
		os.Exit(2)
	}
	findings, err := analyzers.Run(root, patterns, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmt-vet: %v\n", err)
		os.Exit(2)
	}

	if *fix == "allow-prune" {
		// Stale suppressions only, as file:line prune targets.
		n := 0
		for _, f := range findings {
			if f.Analyzer != "unusedallow" {
				continue
			}
			fmt.Printf("%s:%d: %s\n", f.Pos.Filename, f.Pos.Line, f.Message)
			n++
		}
		if n > 0 {
			fmt.Fprintf(os.Stderr, "mmt-vet: %d stale //mmt:allow comment(s) to prune\n", n)
			os.Exit(1)
		}
		return
	}

	var dst io.Writer = os.Stdout
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mmt-vet: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		dst = f
	}
	if *jsonOut {
		if err := analyzers.WriteJSON(dst, findings, root); err != nil {
			fmt.Fprintf(os.Stderr, "mmt-vet: write output: %v\n", err)
			os.Exit(2)
		}
	}
	if !*jsonOut || *outFile != "" {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "mmt-vet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
