package obs_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"testing"

	"repro/internal/obs"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// TestVMQuantaAreCapped: the VM emits its scheduler quanta as the
// spans the cap bounds, so a capped trace of a run keeps exactly the
// cap's worth of quanta and reports the rest as dropped.
func TestVMQuantaAreCapped(t *testing.T) {
	prog, err := workloads.Build("radiosity", workloads.SizeTiny)
	if err != nil {
		t.Fatal(err)
	}
	const capQuanta = 5
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	tr.SetQuantumCap(capQuanta)
	m, err := vm.New(prog, vm.Config{Seed: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	quanta, dropped := 0, ""
	for _, e := range events {
		switch e.Name {
		case "quantum":
			quanta++
		case "trace.dropped":
			dropped = e.Args["dropped"]
		}
	}
	total := m.Metrics().Quanta
	if total <= capQuanta {
		t.Fatalf("run has %d quanta, too few to exceed the cap", total)
	}
	if quanta != capQuanta || dropped != strconv.FormatUint(total-capQuanta, 10) {
		t.Fatalf("trace kept %d quanta and dropped %q, want %d and %d", quanta, dropped, capQuanta, total-capQuanta)
	}
}
