// dvisim runs one benchmark on the out-of-order simulator and prints
// timing and DVI statistics.
//
// Usage:
//
//	dvisim -bench perl -scale 2 -dvi full -scheme stack -regs 96 -ports 2
//
// With -contexts N > 1 the machine runs N SMT hardware contexts, each
// executing its own copy of the benchmark through one shared core, and
// the report gains a per-context breakdown.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dvi/internal/core"
	"dvi/internal/emu"
	"dvi/internal/obs"
	"dvi/internal/ooo"
	"dvi/internal/runner"
	"dvi/internal/session"
	"dvi/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole program behind exit-code plumbing, so tests can drive
// the real flag parsing, validation and report paths in-process. It
// returns the process exit code: 0 on success, 2 for flag/usage errors,
// 1 for runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dvisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench  = fs.String("bench", "gcc", "benchmark: compress|go|ijpeg|li|vortex|perl|gcc")
		scale  = fs.Int("scale", 1, "workload scale factor")
		level  = fs.String("dvi", "full", "DVI level: none|idvi|full")
		scheme = fs.String("scheme", "stack", "elimination scheme: off|lvm|stack")
		regs   = fs.Int("regs", 96, "physical register file size")
		ports  = fs.Int("ports", 2, "cache ports")
		width  = fs.Int("width", 4, "issue width")
		max    = fs.Uint64("maxinsts", 0, "instruction budget (0 = to completion)")
		wrong  = fs.Bool("wrongpath", true, "model wrong-path fetch")

		contexts = fs.Int("contexts", 1, "SMT hardware contexts sharing the core")
		fetchPol = fs.String("fetch-policy", "round-robin", "multi-context fetch arbitration: round-robin|icount")

		pipetrace = fs.String("pipetrace", "", "write a per-instruction pipeline trace to FILE")
		traceFmt  = fs.String("pipetrace-format", "chrome", "pipeline trace format: chrome|konata")
		traceMax  = fs.Int("pipetrace-limit", 0, "max trace records (0 = unbounded)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}
	if *traceFmt != "chrome" && *traceFmt != "konata" {
		return fail("bad -pipetrace-format %q (want chrome or konata)", *traceFmt)
	}
	if *traceMax < 0 {
		return fail("bad -pipetrace-limit %d (want >= 0; 0 means unbounded)", *traceMax)
	}
	if *contexts < 1 {
		return fail("bad -contexts %d (want >= 1)", *contexts)
	}

	spec, ok := workload.ByName(*bench)
	if !ok {
		return fail("unknown benchmark %q; have %v", *bench, workload.Names())
	}

	var dviLevel core.Level
	switch *level {
	case "none":
		dviLevel = core.None
	case "idvi":
		dviLevel = core.IDVI
	case "full":
		dviLevel = core.Full
	default:
		return fail("bad -dvi %q (want none, idvi or full)", *level)
	}
	var elim emu.Scheme
	switch *scheme {
	case "off":
		elim = emu.ElimOff
	case "lvm":
		elim = emu.ElimLVM
	case "stack":
		elim = emu.ElimLVMStack
	default:
		return fail("bad -scheme %q (want off, lvm or stack)", *scheme)
	}
	var policy ooo.FetchPolicy
	switch *fetchPol {
	case "round-robin":
		policy = ooo.FetchRoundRobin
	case "icount":
		policy = ooo.FetchICOUNT
	default:
		return fail("bad -fetch-policy %q (want round-robin or icount)", *fetchPol)
	}

	var traceBuf *obs.PipeBuffer
	cfg := ooo.DefaultConfig()
	cfg.PhysRegs, cfg.CachePorts, cfg.IssueWidth, cfg.WrongPathFetch = *regs, *ports, *width, *wrong
	if *pipetrace != "" {
		traceBuf = obs.NewPipeBuffer(*traceMax)
		cfg.Trace = traceBuf
	}

	// One session, one job, resolved and validated by session.NewJob:
	// the binary flavour follows the session layer's central E-DVI rule
	// (annotated binaries iff the level is full), and KeepMachine
	// retains the simulator instance for the cache/predictor detail
	// below.
	job, err := session.NewJob(runner.Timing, spec,
		session.WithScale(*scale), session.WithMachineConfig(cfg),
		session.WithDVILevel(dviLevel), session.WithScheme(elim), session.WithMaxInsts(*max),
		session.WithContexts(*contexts), session.WithFetchPolicy(policy))
	if err != nil {
		return fail("%v (check -regs, -ports, -width and -contexts)", err)
	}
	job.KeepMachine = true
	results, err := session.New(session.WithWorkers(1)).Collect(context.Background(), []session.Job{job})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st, m := results[0].Timing, results[0].Machine

	fmt.Fprintf(stdout, "benchmark        %s (scale %d, %s, scheme %s)\n", spec.Name, *scale, job.Machine.Emu.DVI.Level, job.Machine.Emu.Scheme)
	if *contexts > 1 {
		fmt.Fprintf(stdout, "contexts         %d (%s fetch)\n", *contexts, policy)
	}
	fmt.Fprintf(stdout, "cycles           %d\n", st.Cycles)
	fmt.Fprintf(stdout, "insts committed  %d (IPC %.3f)\n", st.Committed, st.IPC())
	fmt.Fprintf(stdout, "kills committed  %d\n", st.KillsSeen)
	fmt.Fprintf(stdout, "saves/restores   eliminated %d/%d\n", st.ElimSaves, st.ElimRests)
	fmt.Fprintf(stdout, "early reclaims   %d physical registers\n", st.EarlyReclaimed)
	fmt.Fprintf(stdout, "mispredicts      %d (wrong-path insts %d)\n", st.Mispredicts, st.WrongPath)
	fmt.Fprintf(stdout, "stall cycles     rename %d, window %d, ports %d\n",
		st.RenameStallCycles, st.WindowFullCycles, st.PortStallCycles)
	fmt.Fprintf(stdout, "phys regs in use max %d of %d\n", st.MaxPhysInUse, *regs)
	h := m.Hierarchy()
	fmt.Fprintf(stdout, "caches           il1 %.2f%% miss, dl1 %.2f%% miss, l2 %.2f%% miss\n",
		100*h.L1I.Stats.MissRate(), 100*h.L1D.Stats.MissRate(), 100*h.L2.Stats.MissRate())
	fmt.Fprintf(stdout, "branch predictor %.2f%% mispredict\n", 100*m.Predictor().MispredictRate())
	fmt.Fprintf(stdout, "checksum         %#x\n", m.Emu().Checksum)
	for i, c := range results[0].CtxStats {
		fmt.Fprintf(stdout, "context %-8d committed %d (IPC %.3f), elim %d/%d, mispredicts %d, checksum %#x\n",
			i, c.Committed, c.IPC(), c.ElimSaves, c.ElimRests, c.Mispredicts, m.EmuCtx(i).Checksum)
	}

	if traceBuf != nil {
		if err := writeTrace(*pipetrace, *traceFmt, traceBuf); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "pipetrace        %s (%s, %d records", *pipetrace, *traceFmt, traceBuf.Len())
		if d := traceBuf.Dropped(); d > 0 {
			fmt.Fprintf(stdout, ", %d dropped past -pipetrace-limit", d)
		}
		fmt.Fprintf(stdout, ")\n")
	}
	return 0
}

// writeTrace renders the captured pipeline records to path: Chrome
// trace_event JSON (load in chrome://tracing or Perfetto) or a Kanata
// pipeline-viewer log.
func writeTrace(path, format string, buf *obs.PipeBuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if format == "konata" {
		err = obs.WriteKonata(w, buf.Records())
	} else {
		err = obs.WriteChromeTrace(w, buf.Records())
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
