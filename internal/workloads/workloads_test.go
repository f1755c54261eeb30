package workloads

import (
	"testing"

	"repro/internal/mir"
	"repro/internal/vm"
)

func runTiny(t *testing.T, name string, bug Bug) *vm.Result {
	t.Helper()
	p, err := BuildBug(name, SizeTiny, bug)
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	m, err := vm.New(p, vm.Config{})
	if err != nil {
		t.Fatalf("link %s: %v", name, err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	return res
}

func TestAllWorkloadsRun(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, name, BugNone)
			if res.Exit != 0 {
				t.Fatalf("%s exited %d", name, res.Exit)
			}
			if res.Steps == 0 {
				t.Fatalf("%s retired no instructions", name)
			}
			spec, _ := Get(name)
			if spec.Threads > 0 && res.Threads < spec.Threads {
				t.Fatalf("%s spawned %d threads, want >= %d", name, res.Threads, spec.Threads)
			}
		})
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range []string{"fft", "memcached", "radiosity", "bzip2"} {
		a := runTiny(t, name, BugNone)
		b := runTiny(t, name, BugNone)
		if a.Steps != b.Steps {
			t.Errorf("%s: steps differ across runs: %d vs %d", name, a.Steps, b.Steps)
		}
	}
}

func TestBugVariantsRun(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		for _, bug := range spec.Bugs {
			res := runTiny(t, name, bug)
			if res.Steps == 0 {
				t.Errorf("%s/%s retired no instructions", name, bug)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Build("nope", SizeTiny); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if _, err := BuildBug("fft", SizeTiny, BugSSLLeak); err == nil {
		t.Fatal("expected error for unsupported bug")
	}
}

// TestParseSpellings: ParseSize and ParseBug invert String for every
// size and bug, and reject any other spelling.
func TestParseSpellings(t *testing.T) {
	for _, z := range []Size{SizeTiny, SizeSmall, SizeMedium, SizeLarge} {
		if got, err := ParseSize(z.String()); err != nil || got != z {
			t.Errorf("ParseSize(%q) = %v, %v; want %v", z.String(), got, err, z)
		}
	}
	for _, b := range []Bug{BugNone, BugUninit, BugSSLLeak, BugSSLShutdown, BugZlibUninit, BugUAF, BugRace, BugTaint} {
		if got, err := ParseBug(b.String()); err != nil || got != b {
			t.Errorf("ParseBug(%q) = %v, %v; want %v", b.String(), got, err, b)
		}
	}
	for _, s := range []string{"", "huge", "Tiny", "tiny "} {
		if _, err := ParseSize(s); err == nil {
			t.Errorf("ParseSize(%q) accepted an unknown size", s)
		}
	}
	for _, s := range []string{"", "bogus", "UAF", "bug(8)"} {
		if _, err := ParseBug(s); err == nil {
			t.Errorf("ParseBug(%q) accepted an unknown bug", s)
		}
	}
}

func TestSuites(t *testing.T) {
	if got := len(Suite("specint")); got != 9 {
		t.Errorf("specint suite has %d entries, want 9", got)
	}
	if got := len(Suite("splash2")); got != 12 {
		t.Errorf("splash2 suite has %d entries, want 12", got)
	}
	if got := len(Suite("realworld")); got != 4 {
		t.Errorf("realworld suite has %d entries, want 4", got)
	}
}

// Every workload program must round-trip through the MIR text format:
// print -> parse -> print identically and still verify. This pins the
// printer and parser against the full instruction vocabulary the
// generators use.
func TestWorkloadsRoundTripMIRText(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := MustBuild(name, SizeTiny)
			text1 := p.String()
			q, err := mir.ParseText(text1)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if text2 := q.String(); text2 != text1 {
				t.Fatal("round trip diverged")
			}
			if err := q.Verify(); err != nil {
				t.Fatalf("verify after round trip: %v", err)
			}
		})
	}
}
