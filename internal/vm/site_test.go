package vm

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/mir"
)

// emitHook appends an OpHook for handler id to the builder's current
// block, the way the instrumenter splices one after an instruction.
func emitHook(b *mir.FuncBuilder, id int, name string, metaDst mir.Reg, args ...mir.HookArg) {
	f := b.Func()
	blk := &f.Blocks[b.CurBlock()]
	blk.Instrs = append(blk.Instrs, mir.Instr{
		Op: mir.OpHook, Dst: mir.NoReg,
		Hook: &mir.HookRef{HandlerID: id, Args: args, MetaDst: metaDst, Name: name},
	})
}

// renderReports prints every field a Report carries, one report a line.
func renderReports(rs []*Report) string {
	var b strings.Builder
	for _, r := range rs {
		fmt.Fprintf(&b, "%s|%s|got=%d want=%d|%s|%s|x%d|step=%d|%s/b%d\n",
			r.Analysis, r.Message, r.Got, r.Expected, r.Where,
			strings.Join(r.Trace, ","), r.Count, r.Step, r.Fn, r.Block)
	}
	return b.String()
}

// TestReportSlots pins what Run returns for findings filed through
// hook sites and outside them: two analyses reporting at one site (a
// fused hook's parts), one (analysis, message) at two sites, 10⁴
// repeats from two threads, a site that starts reporting late, and
// AtExit filings. Every field — order, Where, Trace, Count, Step, Got —
// is pinned to what deduplication by a (analysis, message, function,
// block, pc) key gives.
func TestReportSlots(t *testing.T) {
	p := mir.NewProgram()
	w := p.NewFunc("worker", 1)
	w.Loop(mir.R(w.Param(0)), func(i mir.Reg) {
		v := w.Mul(mir.R(i), mir.C(3))
		emitHook(w, 0, "fused", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: v})
		emitHook(w, 1, "other", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: i})
	})
	w.Ret()
	b := p.NewFunc("main", 0)
	th := b.Spawn("worker", mir.C(10))
	b.CallVoid("worker", mir.C(10000))
	b.Join(mir.R(th))
	b.Ret()

	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Handlers = []HandlerFn{
		func(m *Machine, tid uint64, args []uint64) uint64 {
			m.Report("partA", "data race", args[0], 0)
			m.Report("partB", "use after free", args[0], 1)
			return 0
		},
		func(m *Machine, tid uint64, args []uint64) uint64 {
			// The spawned thread files this site's report first.
			if tid != 0 || args[0] >= 500 {
				m.Report("partA", "data race", args[0], 2)
			}
			return 0
		},
	}
	m.AtExit = append(m.AtExit, func(m *Machine) {
		m.Report("exit", "leak", 7, 0)
		m.Report("exit", "leak", 8, 0)
		m.Report("partA", "data race", 9, 0)
	})
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	const want = `partA|data race|got=0 want=0|worker@b2:2|worker@b2:2,main@b0:2|x10010|step=12|worker/b2
partB|use after free|got=0 want=1|worker@b2:2|worker@b2:2,main@b0:2|x10010|step=12|worker/b2
partA|data race|got=0 want=2|worker@b2:3|worker@b2:3|x9510|step=89|worker/b2
exit|leak|got=7 want=0|<exit>||x2|step=110130|<exit>/b0
partA|data race|got=9 want=0|<exit>||x1|step=110130|<exit>/b0
`
	if got := renderReports(res.Reports); got != want {
		t.Fatalf("reports:\n%s\nwant:\n%s", got, want)
	}
	if got := renderReports(m.Reports()); got != want {
		t.Fatalf("Machine.Reports differs from Result.Reports:\n%s", got)
	}
}

// TestHookSiteArgs is the dispatch contract of one hook site: every
// HookArgKind reaches the handler at its own index, on the main thread
// and a spawned one, with shadow tracking on and off; HookRegMeta reads
// 0 and MetaDst is not written back when tracking is off; and a
// handler that overwrites its args slice does not change what the next
// dispatch passes.
func TestHookSiteArgs(t *testing.T) {
	p := mir.NewProgram()
	w := p.NewFunc("worker", 1)
	y := w.Add(mir.R(w.Param(0)), mir.C(6))
	emitHook(w, 0, "setMeta", y, mir.HookArg{Kind: mir.HookReg, Reg: y})
	w.Loop(mir.C(3), func(i mir.Reg) {
		z := w.Add(mir.R(i), mir.C(100))
		emitHook(w, 1, "all", mir.NoReg,
			mir.HookArg{Kind: mir.HookConst, Const: 9},
			mir.HookArg{Kind: mir.HookReg, Reg: z},
			mir.HookArg{Kind: mir.HookRegMeta, Reg: y},
			mir.HookArg{Kind: mir.HookThread},
			mir.HookArg{Kind: mir.HookConst, Const: -1},
			mir.HookArg{Kind: mir.HookReg, Reg: i})
	})
	w.Ret()
	b := p.NewFunc("main", 0)
	th := b.Spawn("worker", mir.C(6))
	b.CallVoid("worker", mir.C(5))
	b.Join(mir.R(th))
	b.Ret()

	for _, track := range []bool{false, true} {
		t.Run(fmt.Sprintf("track=%v", track), func(t *testing.T) {
			got := map[uint64][][]uint64{}
			res, err := runWith(t, p, Config{TrackShadow: track}, func(*Machine) []HandlerFn {
				return []HandlerFn{
					func(m *Machine, tid uint64, args []uint64) uint64 {
						return args[0] + 0xA00
					},
					func(m *Machine, tid uint64, args []uint64) uint64 {
						got[tid] = append(got[tid], append([]uint64(nil), args...))
						for i := range args {
							args[i] = 0xDEAD
						}
						return 0
					},
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.HookCalls != 8 {
				t.Fatalf("hook calls = %d, want 8", res.HookCalls)
			}
			for tid, k := range map[uint64]uint64{0: 5, 1: 6} {
				meta := uint64(0)
				if track {
					meta = k + 6 + 0xA00
				}
				var want [][]uint64
				for i := uint64(0); i < 3; i++ {
					want = append(want, []uint64{9, 100 + i, meta, tid, ^uint64(0), i})
				}
				if fmt.Sprint(got[tid]) != fmt.Sprint(want) {
					t.Errorf("thread %d args = %v, want %v", tid, got[tid], want)
				}
			}
		})
	}
}

// TestHookSitePanicNth: an injected handler panic fires at exactly
// dispatch N, before that dispatch's handler runs, and names the
// site's handler.
func TestHookSitePanicNth(t *testing.T) {
	p := mir.NewProgram()
	b := p.NewFunc("main", 0)
	b.Loop(mir.C(10), func(i mir.Reg) {
		emitHook(b, 0, "victim", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: i})
	})
	b.Ret()
	calls := 0
	_, err := runWith(t, p, Config{Faults: FaultSpec{HandlerPanicNth: 4}}, func(*Machine) []HandlerFn {
		return []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 {
			calls++
			return 0
		}}
	})
	re := wantKind(t, err, KindTrap)
	if !strings.Contains(re.Msg, "hook dispatch #4 (victim)") {
		t.Fatalf("panic message %q does not name dispatch #4 of victim", re.Msg)
	}
	if calls != 3 {
		t.Fatalf("handler ran %d times before the injected panic, want 3", calls)
	}
}

// TestHookSiteMissingHandler: a site whose handler slot is nil or past
// the end of the table traps at its first dispatch, after the valid
// dispatches before it; a run that never reaches such a site succeeds.
func TestHookSiteMissingHandler(t *testing.T) {
	for _, id := range []int{1, 2} { // 1: a nil slot; 2: past the end
		t.Run(fmt.Sprintf("id=%d", id), func(t *testing.T) {
			p := mir.NewProgram()
			b := p.NewFunc("main", 0)
			x := b.Const(1)
			emitHook(b, 0, "ok", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: x})
			emitHook(b, 0, "ok", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: x})
			emitHook(b, id, "missing", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: x})
			b.Ret()
			calls := 0
			handlers := func(*Machine) []HandlerFn {
				return []HandlerFn{func(m *Machine, tid uint64, args []uint64) uint64 {
					calls++
					return 0
				}, nil}
			}
			_, err := runWith(t, p, Config{}, handlers)
			re := wantKind(t, err, KindTrap)
			if calls != 2 {
				t.Fatalf("valid handler ran %d times, want 2", calls)
			}
			if len(re.Backtrace) == 0 || re.Backtrace[0] != "main@b0:3" {
				t.Fatalf("trap backtrace %v, want it at the missing site main@b0:3", re.Backtrace)
			}

			p = mir.NewProgram()
			b = p.NewFunc("main", 0)
			c := b.Const(0)
			b.If(mir.R(c), func() {
				emitHook(b, id, "missing", mir.NoReg, mir.HookArg{Kind: mir.HookReg, Reg: c})
			}, nil)
			b.Ret()
			if _, err := runWith(t, p, Config{}, handlers); err != nil {
				t.Fatalf("a run that never reaches the missing site failed: %v", err)
			}
		})
	}
}

// TestLinkedSizes pins two sizes on 64-bit targets. The linked
// instruction stays at 136 bytes: a hook's site index shares the word
// a call's UserFn used alone, so linking hooks does not grow the
// instruction stream every run, instrumented or not, walks. A hook
// site record stays at one 64-byte line.
func TestLinkedSizes(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit targets")
	}
	if n := unsafe.Sizeof(linkedInstr{}); n != 136 {
		t.Errorf("linkedInstr is %d bytes, want 136", n)
	}
	if n := unsafe.Sizeof(hookSite{}); n != 64 {
		t.Errorf("hookSite is %d bytes, want 64", n)
	}
}
