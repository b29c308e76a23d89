package mqx

import (
	"fmt"
	"sort"
)

// Run invokes each analyzer over every target package of the program,
// dedupes, and returns the diagnostics in file/position order.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Targets() {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
			}
		}
	}

	kept := diags[:0]
	seen := make(map[string]bool)
	for _, d := range diags {
		pos := prog.Position(d.Pos)
		key := fmt.Sprintf("%s:%d:%d:%s:%s", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
		if seen[key] {
			continue
		}
		seen[key] = true
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		pi, pj := prog.Position(kept[i].Pos), prog.Position(kept[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return kept, nil
}
