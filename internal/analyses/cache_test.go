package analyses

import (
	"strings"
	"testing"

	"repro/internal/compiler"
)

// TestCompileMemoized asserts the compile-once behavior the harness
// depends on: the same (name, options) pair yields the same shared
// *Analysis, while different options or a combined source compile
// separately.
func TestCompileMemoized(t *testing.T) {
	a1, err := Compile("msan", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Compile("msan", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("same name and options should return the cached Analysis")
	}
	b, err := Compile("msan", compiler.DSOnlyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b == a1 {
		t.Error("different options must not share a compiled Analysis")
	}

	c1, err := CompileCombined(compiler.DefaultOptions(), "eraser", "uaf")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CompileCombined(compiler.DefaultOptions(), "eraser", "uaf")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("same combined names and options should return the cached Analysis")
	}
	single, err := Compile("eraser", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if c1 == single {
		t.Error("combined analysis must not collide with a single analysis")
	}
	// The cached Analysis arrives fully wired: externals registered
	// before publication, so concurrent users never observe a partial
	// table.
	ft, err := Compile("fasttrack", compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for name := range FastTrackExternals() {
		if _, ok := ft.Externals[name]; !ok {
			t.Errorf("cached analysis missing external %q", name)
		}
	}
}

// TestVariants: every staged variant resolves by name to a staged,
// memoized analysis; an unknown name fails, and so does a variant that
// would build closures.
func TestVariants(t *testing.T) {
	for _, v := range StagedVariants() {
		a, err := Variant(v.Name)
		if err != nil {
			t.Errorf("%s: %v", v.Name, err)
			continue
		}
		if b, _ := Variant(v.Name); b != a {
			t.Errorf("%s: a second lookup compiled again", v.Name)
		}
	}
	if _, err := Variant("eraser/bogus"); err == nil {
		t.Error("no error for an unknown variant")
	}
	compiler.ResetCompileCache()
	compiler.TestForceClosures = true
	defer func() {
		compiler.TestForceClosures = false
		compiler.ResetCompileCache()
	}()
	if _, err := Variant("eraser"); err == nil || !strings.Contains(err.Error(), "closures (forced by test)") {
		t.Errorf("eraser on closures: err %v, want a refusal", err)
	}
}
