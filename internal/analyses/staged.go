package analyses

import (
	"fmt"
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

// StagedVariants lists every configuration the experiments and the
// repository benchmark run, which are the ones staged: the eight
// shipped analyses at DefaultOptions, Eraser under the ablation's
// optimization subsets (ds-only is Figure 4's column), UAF at the
// sub-word granularities of the §5.1 sweep, the Figure 5 combination
// fused and unfused, and MSan with its cold member split out (the pgo
// and mem experiments). The harness reaches analyses only through
// Variant, by these names.
func StagedVariants() []StagedVariant {
	full := compiler.NamedOptions{Name: "full", Opts: compiler.DefaultOptions()}
	var out []StagedVariant
	for _, n := range Names() {
		out = append(out, StagedVariant{Name: n, Analyses: []string{n}, Opts: full})
	}
	of := func(analysis, config string, opts compiler.Options) StagedVariant {
		return StagedVariant{Name: analysis + "/" + config, Analyses: []string{analysis}, Opts: compiler.NamedOptions{Name: config, Opts: opts}}
	}
	noCSE, noCoalesce := compiler.DefaultOptions(), compiler.DefaultOptions()
	noCSE.CSE, noCoalesce.Coalesce = false, false
	out = append(out,
		of("eraser", "dsonly", compiler.DSOnlyOptions()),
		of("eraser", "nocse", noCSE),
		of("eraser", "nocoalesce", noCoalesce),
		of("eraser", "naive", compiler.NaiveOptions()),
	)
	for _, g := range []int{1, 2, 4} {
		out = append(out, of("uaf", fmt.Sprintf("gran%d", g), compiler.DefaultOptions().WithGranularity(g)))
	}
	return append(out,
		StagedVariant{Name: "combined", Analyses: Fig5Combination, Opts: full},
		StagedVariant{Name: "combined/nofuse", Analyses: Fig5Combination, Opts: compiler.NamedOptions{Name: "nofuse", Opts: compiler.NoFuseOptions()}},
		of("msan", "split", compiler.SplitOptions()),
	)
}

// Variant compiles the staged variant of that name, memoized like
// Compile and CompileCombined. It fails when the staged table has no
// entry for the variant, so nothing that names its configurations this
// way runs on the closure emitter unnoticed.
func Variant(name string) (*compiler.Analysis, error) {
	for _, v := range StagedVariants() {
		if v.Name != name {
			continue
		}
		var a *compiler.Analysis
		var err error
		if len(v.Analyses) == 1 {
			a, err = Compile(v.Analyses[0], v.Opts.Opts)
		} else {
			a, err = CompileCombined(v.Opts.Opts, v.Analyses...)
		}
		if err == nil && !a.Staged() {
			return nil, fmt.Errorf("analyses: variant %s runs on %s (run `make staged`)", name, a.HandlerBackend())
		}
		return a, err
	}
	return nil, fmt.Errorf("analyses: unknown variant %q", name)
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
