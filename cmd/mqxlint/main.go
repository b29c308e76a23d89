// Command mqxlint runs the repo's five invariant analyzers — hotalloc,
// scratchescape, lazyrange, ctxphase, validatefirst — over the named
// packages and exits non-zero if any finding survives //mqx:allow
// filtering. It is the local mirror of the CI gate:
//
//	go run ./cmd/mqxlint ./...
//	go run ./cmd/mqxlint -tags faultinject ./internal/fhe/...
//	go run ./cmd/mqxlint -goarch amd64 ./internal/ring/...
//
// Findings print as file:line:col: [analyzer] message. Suppress a
// deliberate violation with //mqx:allow <analyzer> <reason> on (or
// immediately above) the offending line; the reason is mandatory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mqxgo/internal/analysis/analyzers"
	"mqxgo/internal/analysis/mqx"
)

func main() {
	tags := flag.String("tags", "", "comma-separated build tags, as for go build")
	goarch := flag.String("goarch", "", "target GOARCH for type-checking (default: host)")
	only := flag.String("only", "", "comma-separated subset of analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mqxlint [-tags list] [-goarch arch] [-only names] [packages]\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nanalyzers:\n")
		for _, a := range analyzers.All {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := analyzers.All
	if *only != "" {
		want := make(map[string]bool)
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		suite = nil
		for _, a := range analyzers.All {
			if want[a.Name] {
				suite = append(suite, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(os.Stderr, "mqxlint: unknown analyzer %q\n", n)
			os.Exit(2)
		}
	}

	var tagList []string
	if *tags != "" {
		tagList = strings.Split(*tags, ",")
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqxlint: %v\n", err)
		os.Exit(2)
	}
	loader, err := mqx.NewLoader(cwd, tagList, *goarch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqxlint: %v\n", err)
		os.Exit(2)
	}
	prog, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqxlint: %v\n", err)
		os.Exit(2)
	}

	diags, err := mqx.Run(prog, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mqxlint: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		fmt.Printf("%s:%d:%d: [%s] %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mqxlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
