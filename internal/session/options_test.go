package session

import (
	"testing"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/workload"
)

// TestOverlayPreservesEmulatorKnobs pins the documented option-layering
// contract: WithDVILevel and WithScheme applied on top of an explicit
// machine or emulator config replace only the DVI hardware block and the
// elimination scheme — never the config's other knobs (CheckDeadReads,
// MaxOutputs, a customized stack depth).
func TestOverlayPreservesEmulatorKnobs(t *testing.T) {
	w, _ := workload.ByName("li")
	base := ooo.DefaultConfig()
	base.Emu.CheckDeadReads = true
	base.Emu.MaxOutputs = 7

	job, err := NewJob(runner.Timing, w, WithMachineConfig(base), WithScheme(emu.ElimOff))
	if err != nil {
		t.Fatal(err)
	}
	got := job.Machine
	if !got.Emu.CheckDeadReads || got.Emu.MaxOutputs != 7 {
		t.Fatalf("WithScheme dropped emulator knobs: %+v", got.Emu)
	}
	if got.Emu.Scheme != emu.ElimOff {
		t.Fatalf("scheme override not applied: %v", got.Emu.Scheme)
	}
	if got.Emu.DVI != base.Emu.DVI {
		t.Fatalf("scheme override disturbed the DVI config: %+v", got.Emu.DVI)
	}

	if job, err = NewJob(runner.Timing, w, WithMachineConfig(base), WithDVILevel(core.IDVI)); err != nil {
		t.Fatal(err)
	}
	got = job.Machine
	if !got.Emu.CheckDeadReads || got.Emu.MaxOutputs != 7 {
		t.Fatalf("WithDVILevel dropped emulator knobs: %+v", got.Emu)
	}
	if got.Emu.DVI.Level != core.IDVI {
		t.Fatalf("level override not applied: %v", got.Emu.DVI.Level)
	}
	if got.Emu.Scheme != base.Emu.Scheme {
		t.Fatalf("level override disturbed the scheme: %v", got.Emu.Scheme)
	}

	ecfg := EmuConfigFor(core.Full, emu.ElimLVMStack)
	ecfg.CheckDeadReads = true
	if job, err = NewJob(runner.Functional, w, WithEmulatorConfig(ecfg), WithDVILevel(core.None)); err != nil {
		t.Fatal(err)
	}
	egot := job.Emu
	if !egot.CheckDeadReads {
		t.Fatalf("emulator overlay dropped CheckDeadReads: %+v", egot)
	}
	if egot.DVI.Level != core.None {
		t.Fatalf("emulator level override not applied: %v", egot.DVI.Level)
	}
}
