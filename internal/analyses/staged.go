package analyses

import (
	"strings"

	"repro/internal/compiler"
)

// Fig5Combination is the four-way combination Figure 5 runs fused and
// unfused (§6.4.2).
var Fig5Combination = []string{"eraser", "fasttrack", "uaf", "tainttrack"}

// StagedVariant is one configuration the checked-in staged handler
// table covers (see compiler.StagedSource).
type StagedVariant struct {
	Name     string
	Analyses []string // one analysis, or a combination compiled from Combined
	Opts     compiler.NamedOptions
}

// StagedVariants lists the configurations the figures and the
// repository benchmark run: the eight shipped analyses at
// DefaultOptions, Eraser at DSOnlyOptions (Figure 4's ablation column),
// and the Figure 5 combination fused and unfused.
func StagedVariants() []StagedVariant {
	full := compiler.NamedOptions{Name: "full", Opts: compiler.DefaultOptions()}
	var out []StagedVariant
	for _, n := range Names() {
		out = append(out, StagedVariant{Name: n, Analyses: []string{n}, Opts: full})
	}
	return append(out,
		StagedVariant{Name: "eraser/dsonly", Analyses: []string{"eraser"}, Opts: compiler.NamedOptions{Name: "dsonly", Opts: compiler.DSOnlyOptions()}},
		StagedVariant{Name: "combined", Analyses: Fig5Combination, Opts: full},
		StagedVariant{Name: "combined/nofuse", Analyses: Fig5Combination, Opts: compiler.NamedOptions{Name: "nofuse", Opts: compiler.NoFuseOptions()}},
	)
}

// StagedGenerator is the command that regenerates the staged table.
const StagedGenerator = "go run ./internal/analyses/stagegen"

// StagedSource prints the staged handler table for every staged
// variant: the content of internal/compiler/staged_handlers.go.
func StagedSource() ([]byte, error) {
	var units []compiler.StageUnit
	for _, v := range StagedVariants() {
		src, err := Combined(v.Analyses...)
		if err != nil {
			return nil, err
		}
		a, err := compiler.Compile(src, v.Opts.Opts)
		if err != nil {
			return nil, err
		}
		fn := "staged"
		for _, part := range strings.FieldsFunc(v.Name, func(r rune) bool { return r == '/' }) {
			fn += strings.ToUpper(part[:1]) + part[1:]
		}
		units = append(units, compiler.StageUnit{Func: fn, Comment: strings.Join(v.Analyses, "+") + " (" + v.Opts.Name + ")", Analysis: a})
	}
	return compiler.StagedSource(StagedGenerator, units)
}
