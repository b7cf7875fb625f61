package vtsim

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each iteration regenerates the experiment's full data (all simulations it
// needs). Run verbosely to see the tables:
//
//	go test -bench=BenchmarkFigSpeedup -benchtime=1x -v
//
// Set VTSIM_DILUTE=N to shrink grids N-fold for quick passes. Component
// micro-benchmarks (SIMT stack, cache, event queue, warp execute, VT
// controller, whole-GPU runs) follow the experiment benchmarks.

import (
	"io"
	"os"
	"strconv"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/simt"
	"repro/internal/sm"
	"repro/internal/warp"
)

func benchExperiment(b *testing.B, id string) {
	p := DefaultExperimentParams()
	if d, err := strconv.Atoi(os.Getenv("VTSIM_DILUTE")); err == nil && d > 1 {
		p.Dilute = d
	}
	var out io.Writer = io.Discard
	if testing.Verbose() {
		out = os.Stdout
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drop the memo cache so every iteration re-simulates; otherwise
		// iterations after the first would measure cache lookups.
		ResetExperimentMetrics()
		if err := RunExperiment(id, p, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Config regenerates the simulated-hardware table.
func BenchmarkTable1Config(b *testing.B) { benchExperiment(b, "table1-config") }

// BenchmarkTable2Benchmarks regenerates the benchmark-characteristics table.
func BenchmarkTable2Benchmarks(b *testing.B) { benchExperiment(b, "table2-benchmarks") }

// BenchmarkFigLimiter regenerates the stranded-TLP motivation figure.
func BenchmarkFigLimiter(b *testing.B) { benchExperiment(b, "fig-limiter") }

// BenchmarkFigTLP regenerates the active/resident-warps figure.
func BenchmarkFigTLP(b *testing.B) { benchExperiment(b, "fig-tlp") }

// BenchmarkFigSpeedup regenerates the headline per-benchmark speedup figure
// (paper: +23.9% average).
func BenchmarkFigSpeedup(b *testing.B) { benchExperiment(b, "fig-speedup") }

// BenchmarkFigIdealGap regenerates the VT-vs-ideal comparison.
func BenchmarkFigIdealGap(b *testing.B) { benchExperiment(b, "fig-ideal-gap") }

// BenchmarkFigFullSwap regenerates the off-chip context-switch strawman
// comparison.
func BenchmarkFigFullSwap(b *testing.B) { benchExperiment(b, "fig-fullswap") }

// BenchmarkFigSwapLatency regenerates the swap-latency sensitivity sweep.
func BenchmarkFigSwapLatency(b *testing.B) { benchExperiment(b, "fig-swaplat") }

// BenchmarkFigVirtualCap regenerates the virtual-CTA-budget sweep.
func BenchmarkFigVirtualCap(b *testing.B) { benchExperiment(b, "fig-virtcap") }

// BenchmarkFigRFSize regenerates the register-file-size sensitivity study.
func BenchmarkFigRFSize(b *testing.B) { benchExperiment(b, "fig-rfsize") }

// BenchmarkFigScheduler regenerates the GTO-vs-LRR interaction study.
func BenchmarkFigScheduler(b *testing.B) { benchExperiment(b, "fig-sched") }

// BenchmarkTableSwap regenerates the swap-behaviour statistics table.
func BenchmarkTableSwap(b *testing.B) { benchExperiment(b, "table-swap") }

// BenchmarkTableHardware regenerates the hardware-overhead estimate.
func BenchmarkTableHardware(b *testing.B) { benchExperiment(b, "table-hw") }

// --- component micro-benchmarks ---

// BenchmarkSIMTStackDivergence measures divergence/reconvergence handling.
func BenchmarkSIMTStackDivergence(b *testing.B) {
	var s simt.Stack
	for i := 0; i < b.N; i++ {
		s.Reset(32)
		s.Branch(0x0000FFFF, 10, 20)
		for !s.Finished() {
			pc, active, ok := s.Current()
			if !ok {
				break
			}
			if pc >= 19 {
				s.Exit(active)
				continue
			}
			s.Advance()
		}
	}
}

// BenchmarkCacheAccess measures tag-array probe/fill throughput.
func BenchmarkCacheAccess(b *testing.B) {
	ta := mem.NewTagArray(32, 4, 128)
	for i := 0; i < b.N; i++ {
		line := uint32(i%1024) * 128
		if !ta.Probe(line) {
			ta.Fill(line)
		}
	}
}

// BenchmarkEventQueue measures the discrete-event spine.
func BenchmarkEventQueue(b *testing.B) {
	q := event.NewQueue()
	n := 0
	for i := 0; i < b.N; i++ {
		q.At(int64(i+10), func() { n++ })
		if i%16 == 15 {
			q.AdvanceTo(int64(i))
		}
	}
	q.AdvanceTo(int64(b.N + 10))
	if n != b.N {
		b.Fatalf("ran %d of %d events", n, b.N)
	}
}

// aluBenchKernel is straight-line SP-pipeline code in the mix the paper's
// kernels issue between memory operations: index arithmetic, predicates,
// selects and float math. The trailing exit is never executed.
func aluBenchKernel() *isa.Kernel {
	b := isa.NewBuilder("alu_bench")
	b.S2R(0, isa.SrTidX)
	b.S2R(1, isa.SrCTAIdX)
	b.S2R(2, isa.SrNTidX)
	b.IMad(3, 1, 2, 0)
	b.ShlImm(4, 3, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.IAddImm(6, 3, 1)
	b.AndImm(7, 6, 0xFF)
	b.SetpImm(8, isa.CmpILT, 7, 100)
	b.Selp(9, 6, 7, 8)
	b.IMin(10, 9, 3)
	b.FMul(11, 9, 10)
	b.FFma(12, 11, 9, 10)
	b.MovImm(13, 0x3F80_0000)
	b.FAdd(14, 12, 13)
	b.Exit()
	return b.MustBuild()
}

// BenchmarkWarpExecuteALU measures warp.Execute on ALU instructions; one op
// is one warp instruction. "full" runs all 32 lanes, where the lane loops
// write the destination row directly; "divergent" runs the odd lanes,
// where they compute into a scratch row and commit the active lanes.
func BenchmarkWarpExecuteALU(b *testing.B) {
	k := aluBenchKernel()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32), Params: []uint32{0x1000}}
	end := int32(len(k.Code) - 1)
	for _, bc := range []struct {
		name string
		mask simt.Mask
	}{{"full", simt.FullMask(32)}, {"divergent", 0xAAAA_AAAA}} {
		b.Run(bc.name, func(b *testing.B) {
			w := warp.NewCTA(l, 0, 32).Warps[0]
			start := []simt.Entry{{PC: 0, Reconv: -1, Mask: bc.mask}}
			w.Stack.SetState(start, 0)
			addrs := make([]uint32, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pc, _, _ := w.Stack.Current()
				if pc == end {
					w.Stack.SetState(start, 0)
					pc = 0
				}
				warp.Execute(w, &k.Code[pc], nil, addrs)
			}
		})
	}
}

// BenchmarkVTControllerCycle measures one VT controller step (admit,
// activate, swap-out check) on a loaded SM: pathfinder under PolicyVT on
// the GTX480 is paused, through the fault hook, at the first cycle where
// SM 0 holds ready CTAs but no free warp slot, has a free context-buffer
// port, and a trial step changes nothing. That no-op decision is the one
// the controller makes on most cycles. "scan" is the same step with the
// issue fast path disabled, which re-derives every answer by scanning.
func BenchmarkVTControllerCycle(b *testing.B) {
	cfg := config.GTX480().WithPolicy(config.PolicyVT)
	w, err := kernels.Build("pathfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		disable bool
	}{{"fastpath", false}, {"scan", true}} {
		b.Run(bc.name, func(b *testing.B) {
			measured := false
			hook := func(cycle int64, sms []*sm.SM) {
				s := sms[0]
				ctl := s.Ctl.(*core.Controller)
				if measured || cycle < 1000 || s.Asleep() || s.CanActivateFor(1, 1) ||
					ctl.SwapsInFlight(s.ID, s.Ev.Now()) > 0 {
					return
				}
				ready := 0
				for _, c := range s.Resident {
					if c.State == warp.CTAPending || c.State == warp.CTAInactiveReady {
						ready++
					}
				}
				if ready == 0 {
					return
				}
				before, resident := ctl.Stats, len(s.Resident)
				ctl.Cycle(s)
				after := ctl.Stats
				if after.SwapsOut != before.SwapsOut || after.SwapsIn != before.SwapsIn ||
					after.FreshActivates != before.FreshActivates || len(s.Resident) != resident {
					return // the trial step acted; try a later cycle
				}
				measured = true
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctl.Cycle(s)
				}
				b.StopTimer()
			}
			if _, err := gpu.Run(w.Launch, cfg, gpu.Options{
				InitMemory:           w.Init,
				DisableIssueFastPath: bc.disable,
				FaultHook:            hook,
			}); err != nil {
				b.Fatal(err)
			}
			if !measured {
				b.Fatal("no cycle matched the loaded-SM condition")
			}
		})
	}
}

// BenchmarkSimulationCyclesPerSecond measures end-to-end simulator speed on
// one representative workload; the metric is simulated cycles per wall
// second.
func BenchmarkSimulationCyclesPerSecond(b *testing.B) {
	cfg := config.GTX480()
	// Build outside the timed region: workload generation is setup, not
	// simulation, and gpu.Run never mutates the Launch.
	w, err := kernels.Build("pathfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	var cycles int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSimulationVT measures end-to-end speed with the VT controller
// active (swap machinery on the hot path).
func BenchmarkSimulationVT(b *testing.B) {
	cfg := config.GTX480().WithPolicy(config.PolicyVT)
	w, err := kernels.Build("pathfinder", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.Run(w.Launch, cfg, gpu.Options{InitMemory: w.Init}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationVT regenerates the VT design-space ablation.
func BenchmarkAblationVT(b *testing.B) { benchExperiment(b, "ablation-vt") }

// BenchmarkAblationModel regenerates the simulator-model robustness check.
func BenchmarkAblationModel(b *testing.B) { benchExperiment(b, "ablation-model") }

// BenchmarkFigExtras regenerates the extension-workload evaluation.
func BenchmarkFigExtras(b *testing.B) { benchExperiment(b, "fig-extras") }

// BenchmarkTableEnergy regenerates the first-order energy estimate.
func BenchmarkTableEnergy(b *testing.B) { benchExperiment(b, "table-energy") }

// BenchmarkFigKepler regenerates the Kepler-generation sensitivity study.
func BenchmarkFigKepler(b *testing.B) { benchExperiment(b, "fig-kepler") }

// BenchmarkFigMultiKernel regenerates the concurrent-kernel-mix study.
func BenchmarkFigMultiKernel(b *testing.B) { benchExperiment(b, "fig-multikernel") }
