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
// shipped analyses at full optimization, Eraser under the ablation's
// optimization subsets (ds-only is Figure 4's column), UAF at the
// sub-word granularities of the §5.1 sweep, the Figure 5 combination
// fused and unfused, and MSan with its cold member split out (the pgo
// and mem experiments). Each runs at a point of
// compiler.AblationMatrix, named after it, so conformance checks every
// point an experiment measures. The harness reaches analyses only
// through Variant, by these names.
func StagedVariants() []StagedVariant {
	point := map[string]compiler.NamedOptions{}
	for _, p := range compiler.AblationMatrix() {
		point[p.Name] = p
	}
	var out []StagedVariant
	for _, n := range Names() {
		out = append(out, StagedVariant{Name: n, Analyses: []string{n}, Opts: point["full"]})
	}
	for _, v := range []struct {
		name     string
		analyses []string
		point    string
	}{
		{"eraser/dsonly", []string{"eraser"}, "dsonly"},
		{"eraser/nocse", []string{"eraser"}, "nocse"},
		{"eraser/nocoalesce", []string{"eraser"}, "nocoalesce"},
		{"eraser/naive", []string{"eraser"}, "naive"},
		{"uaf/gran1", []string{"uaf"}, "gran1"},
		{"uaf/gran2", []string{"uaf"}, "gran2"},
		{"uaf/gran4", []string{"uaf"}, "gran4"},
		{"combined", Fig5Combination, "full"},
		{"combined/nofuse", Fig5Combination, "nofuse"},
		{"msan/split", []string{"msan"}, "split"},
	} {
		out = append(out, StagedVariant{Name: v.name, Analyses: v.analyses, Opts: point[v.point]})
	}
	return out
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
