package vm

import (
	"fmt"
	"strings"

	"repro/internal/mir"
)

// Report is an analysis finding (an alda_assert failure or a
// baseline-analysis detection). Repeated findings at the same source
// location are deduplicated with a count, the way sanitizers suppress
// duplicate reports.
type Report struct {
	Analysis string // handler or analysis name
	Message  string
	Got      uint64
	Expected uint64
	Where    string   // innermost program frame
	Trace    []string // full backtrace, innermost first
	Count    int
	Step     uint64 // machine step of first occurrence

	// Fn and Block locate the finding structurally. Unlike Where they
	// exclude the pc, which instrumentation shifts as hooks are
	// inserted, so differential checkers can compare finding sites
	// across compilation configurations.
	Fn    string
	Block int
	pc    int // with Fn and Block, the location a repeat must match
}

func (r *Report) String() string {
	return fmt.Sprintf("[%s] %s (got=%d want=%d) at %s x%d",
		r.Analysis, r.Message, int64(r.Got), int64(r.Expected), r.Where, r.Count)
}

// Report files an analysis finding against the current execution point.
// A repeat of a finding only bumps its Count and allocates nothing:
// analyses like Eraser file the same report millions of times. While a
// hook dispatches, the current instruction is its site, whose location
// is fixed, so the repeat is found in the site's short list by
// (analysis, message); elsewhere (AtExit) by a scan of the run's
// reports for the same location.
func (m *Machine) Report(analysis, message string, got, expected uint64) {
	fn, block, pc := "<exit>", 0, 0
	if m.cur != nil && len(m.cur.frames) > 0 {
		fr := &m.cur.frames[len(m.cur.frames)-1]
		if ins := &fr.fn.blocks[fr.block][fr.pc]; ins.Op == mir.OpHook {
			s := &m.notes[ins.Site]
			for _, r := range s.reports {
				if r.Message == message && r.Analysis == analysis {
					r.Count++
					return
				}
			}
			s.reports = append(s.reports, m.fileReport(analysis, message, got, expected))
			return
		}
		fn, block, pc = fr.fn.name, fr.block, fr.pc
	}
	for _, r := range m.reports {
		if r.pc == pc && r.Block == block && r.Fn == fn && r.Message == message && r.Analysis == analysis {
			r.Count++
			return
		}
	}
	m.fileReport(analysis, message, got, expected)
}

// fileReport appends a first filing, located at the current thread's
// innermost frame, to the run's reports.
func (m *Machine) fileReport(analysis, message string, got, expected uint64) *Report {
	trace := m.Backtrace()
	r := &Report{
		Analysis: analysis,
		Message:  message,
		Got:      got,
		Expected: expected,
		Where:    "<exit>",
		Trace:    trace,
		Count:    1,
		Step:     m.steps,
		Fn:       "<exit>",
	}
	if len(trace) > 0 {
		fr := &m.cur.frames[len(m.cur.frames)-1]
		r.Where, r.Fn, r.Block, r.pc = trace[0], fr.fn.name, fr.block, fr.pc
	}
	m.reports = append(m.reports, r)
	return r
}

// Reports returns findings filed so far (also available on Result).
func (m *Machine) Reports() []*Report { return m.reports }

// FormatReports renders reports one per line; convenient for tests and
// the CLI.
func FormatReports(rs []*Report) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
