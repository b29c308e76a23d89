// Command mqxlint runs the repo's invariant analyzer, scratchescape,
// over the named packages and exits non-zero on any finding. It is the
// local mirror of the CI gate:
//
//	go run ./cmd/mqxlint ./...
//	go run ./cmd/mqxlint -tags faultinject ./...
//	go run ./cmd/mqxlint -goarch arm64 ./...
//
// Findings print as file:line:col: [analyzer] message.
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
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mqxlint [-tags list] [-goarch arch] [packages]\n")
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

	diags, err := mqx.Run(prog, analyzers.All)
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
