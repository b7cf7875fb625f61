package gpu

import (
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/isa"
)

// mixedKernel exercises every readiness-flipping path the issue fast path
// caches: global loads (long-latency scoreboard), shared memory with a
// barrier, SFU instructions (structural hazards), plain ALU chains, and an
// atomic. out[gid] = f(a[gid]) staged through a shared tile.
func mixedKernel(t testing.TB) *isa.Kernel {
	b := isa.NewBuilder("mixed_test").SharedMem(256)
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)   // gid
	b.ShlImm(4, 2, 2) // gid byte offset
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.LdG(6, 5, 0)    // a[gid]
	b.ShlImm(7, 3, 2) // tid byte offset into the shared tile
	b.StS(7, 0, 6)
	b.Bar()
	b.LdS(8, 7, 0)
	b.FSin(9, 8)
	b.FRcp(10, 9)
	b.FMul(11, 10, 8)
	b.LdParam(12, 1)
	b.IAdd(12, 12, 4)
	b.StG(12, 0, 11)
	b.LdParam(13, 2)
	b.AtomAdd(14, 13, 0, 3)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func mixedLaunch(t testing.TB, ctas, block int) *isa.Launch {
	const accumBase = 0x0040_0000
	return &isa.Launch{
		Kernel:   mixedKernel(t),
		GridDim:  isa.Dim1(ctas),
		BlockDim: isa.Dim1(block),
		Params:   []uint32{aBase, outBase, accumBase},
	}
}

// TestIssueFastPathEquivalence proves the O(1) issue fast path is
// observation-equivalent to the original full scans: for every policy and
// scheduler the complete Result struct — cycles, every stat counter, the
// stall breakdown — is identical with the fast path on and off.
func TestIssueFastPathEquivalence(t *testing.T) {
	policies := []config.Policy{
		config.PolicyBaseline, config.PolicyVT,
		config.PolicyIdeal, config.PolicyFullSwap,
	}
	schedulers := []config.SchedulerKind{
		config.SchedGTO, config.SchedLRR, config.SchedTwoLevel,
	}
	for _, p := range policies {
		for _, sched := range schedulers {
			t.Run(p.String()+"/"+sched.String(), func(t *testing.T) {
				cfg := config.Small().WithPolicy(p)
				cfg.Scheduler = sched
				const ctas, block = 16, 64
				run := func(disable bool) *Result {
					res, err := Run(mixedLaunch(t, ctas, block), cfg, Options{
						InitMemory:           initVec(ctas * block),
						DisableIssueFastPath: disable,
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				fast, slow := run(false), run(true)
				if !reflect.DeepEqual(fast, slow) {
					t.Fatalf("fast path diverges:\nfast: %+v\nslow: %+v", fast, slow)
				}
			})
		}
	}
}

// memLoopKernel strides loads across 4 KiB so every iteration misses:
// warps spend most cycles memory-blocked, which drives the VT controller
// through its full swap-out/swap-in cycle.
func memLoopKernel(t testing.TB, iters int) *isa.Kernel {
	b := isa.NewBuilder("memloop_test")
	b.S2R(0, isa.SrCTAIdX)
	b.S2R(1, isa.SrNTidX)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrTidX)
	b.IAdd(2, 2, 3)
	b.ShlImm(4, 2, 2)
	b.LdParam(5, 0)
	b.IAdd(5, 5, 4)
	b.MovImm(8, 0)
	b.MovImm(9, 0)
	b.Label("loop")
	b.LdG(6, 5, 0)
	b.IAdd(8, 8, 6)
	b.IAddImm(5, 5, 4096+128)
	b.AndImm(5, 5, 0x3FFFF)
	b.LdParam(7, 0)
	b.IAdd(5, 5, 7)
	b.IAddImm(9, 9, 1)
	b.SetpImm(10, isa.CmpILT, 9, int32(iters))
	b.Bra(10, "loop", "done")
	b.Label("done")
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestIssueFastPathEquivalenceSwaps drives the VT policies through real
// swap-out/swap-in traffic (restore latency, restoreReady tracking,
// context-port wakeups) and requires identical Results fast on/off. The
// act-newest row checks the LIFO pick and the trig-0.50 row the
// partial-stall (TriggerFraction < 1) count path of the controller's
// cached bookkeeping against its scan reference.
func TestIssueFastPathEquivalenceSwaps(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     config.Policy
		tweak func(*config.GPUConfig)
	}{
		{config.PolicyVT.String(), config.PolicyVT, nil},
		{config.PolicyFullSwap.String(), config.PolicyFullSwap, nil},
		{"vt-act-newest", config.PolicyVT, func(c *config.GPUConfig) { c.VT.Activation = config.ActNewest }},
		{"vt-trig-0.50", config.PolicyVT, func(c *config.GPUConfig) { c.VT.TriggerFraction = 0.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.Small().WithPolicy(tc.p)
			if tc.tweak != nil {
				tc.tweak(&cfg)
			}
			l := &isa.Launch{
				Kernel:   memLoopKernel(t, 8),
				GridDim:  isa.Dim1(24),
				BlockDim: isa.Dim1(64),
				Params:   []uint32{aBase},
			}
			run := func(disable bool) *Result {
				res, err := Run(l, cfg, Options{DisableIssueFastPath: disable})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			fast, slow := run(false), run(true)
			if fast.VT.SwapsOut == 0 {
				t.Fatalf("%s: workload produced no swaps; equivalence check is vacuous", tc.name)
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("fast path diverges on swap-heavy run:\nfast: %+v\nslow: %+v", fast, slow)
			}
		})
	}
}

// TestIssueFastPathEquivalenceRFBanks covers the banked-register-file
// scheduler stall (busyUntil), whose duplicate-source bank counting must
// not be changed by the pre-decoded operand masks.
func TestIssueFastPathEquivalenceRFBanks(t *testing.T) {
	cfg := config.Small()
	cfg.RegFileBanks = 16
	run := func(disable bool) *Result {
		res, err := Run(mixedLaunch(t, 12, 64), cfg, Options{
			InitMemory:           initVec(12 * 64),
			DisableIssueFastPath: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if fast, slow := run(false), run(true); !reflect.DeepEqual(fast, slow) {
		t.Fatalf("fast path diverges with banked register file:\nfast: %+v\nslow: %+v", fast, slow)
	}
}
