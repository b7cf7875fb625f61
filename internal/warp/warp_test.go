package warp

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/mem"
)

func simpleLaunch(t *testing.T, k *isa.Kernel, grid, block int, params ...uint32) *isa.Launch {
	t.Helper()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(grid), BlockDim: isa.Dim1(block), Params: params}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	return l
}

// runWarp drives a warp to completion with no timing: issues the next
// instruction every step.
func runWarp(t *testing.T, w *Warp, code []isa.Instr, gmem *mem.Backing) {
	t.Helper()
	buf := make([]uint32, 64)
	for steps := 0; !w.Finished; steps++ {
		if steps > 100000 {
			t.Fatal("warp did not finish")
		}
		pc, _, ok := w.Stack.Current()
		if !ok {
			break
		}
		Execute(w, &code[pc], gmem, buf)
	}
}

func TestScoreboard(t *testing.T) {
	var sb Scoreboard
	buf := make([]isa.Reg, 0, 4)
	in := isa.Instr{Op: isa.OpIAdd, Dst: 2, SrcA: 0, SrcB: 1}

	if c, _ := sb.Conflicts(&in, buf[:4]); c {
		t.Fatal("empty scoreboard must not conflict")
	}
	sb.MarkPending(0, false) // RAW on SrcA, short latency
	c, onLoad := sb.Conflicts(&in, buf[:4])
	if !c || onLoad {
		t.Fatalf("RAW short: conflict=%v onLoad=%v", c, onLoad)
	}
	sb.ClearPending(0)
	sb.MarkPending(1, true) // RAW on SrcB, load
	c, onLoad = sb.Conflicts(&in, buf[:4])
	if !c || !onLoad {
		t.Fatalf("RAW load: conflict=%v onLoad=%v", c, onLoad)
	}
	sb.ClearPending(1)
	sb.MarkPending(2, false) // WAW on Dst
	if c, _ := sb.Conflicts(&in, buf[:4]); !c {
		t.Fatal("WAW must conflict")
	}
	sb.ClearPending(2)
	if sb.Busy() {
		t.Fatal("cleared scoreboard must be idle")
	}
	// RZ never conflicts.
	sb.MarkPending(isa.RZ, true)
	if sb.Busy() {
		t.Fatal("RZ must not be tracked")
	}
}

func TestNewCTAShapes(t *testing.T) {
	k := isa.NewBuilder("k").ReserveRegs(4).SharedMem(256).Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 6, 96)
	c := NewCTA(l, 4, 32)
	if c.ID != (isa.Dim3{X: 4, Y: 0, Z: 0}) {
		t.Errorf("CTA id = %v", c.ID)
	}
	if len(c.Warps) != 3 {
		t.Fatalf("warps = %d, want 3", len(c.Warps))
	}
	if len(c.SMem) != 64 {
		t.Errorf("smem words = %d, want 64", len(c.SMem))
	}
	for i, w := range c.Warps {
		if w.Lanes != 32 {
			t.Errorf("warp %d lanes = %d", i, w.Lanes)
		}
		if len(w.Regs) != 4*32 {
			t.Errorf("warp %d regs = %d", i, len(w.Regs))
		}
	}
}

func TestPartialLastWarp(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 40) // 40 threads = 1 full warp + 8 lanes
	c := NewCTA(l, 0, 32)
	if len(c.Warps) != 2 {
		t.Fatalf("warps = %d, want 2", len(c.Warps))
	}
	if c.Warps[1].Lanes != 8 {
		t.Fatalf("partial warp lanes = %d, want 8", c.Warps[1].Lanes)
	}
	_, active, _ := c.Warps[1].Stack.Current()
	if active.Count() != 8 {
		t.Fatalf("partial warp active = %d, want 8", active.Count())
	}
}

func TestMultiDimCTAID(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim3{X: 3, Y: 2, Z: 2}, BlockDim: isa.Dim1(32)}
	c := NewCTA(l, 7, 32) // 7 = x=1, y=0, z=1 in a 3x2 grid
	if c.ID != (isa.Dim3{X: 1, Y: 0, Z: 1}) {
		t.Errorf("CTA id = %v, want (1,0,1)", c.ID)
	}
}

func TestExecuteALUAndSpecials(t *testing.T) {
	// out[tid] = tid * p0 + ctaid
	b := isa.NewBuilder("alu")
	b.S2R(0, isa.SrTidX)
	b.LdParam(1, 0)
	b.IMul(2, 0, 1)
	b.S2R(3, isa.SrCTAIdX)
	b.IAdd(2, 2, 3)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 4, 32, 10)
	c := NewCTA(l, 2, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 4; lane++ {
		want := uint32(lane*10 + 2)
		if got := w.Reg(2, lane); got != want {
			t.Errorf("lane %d: R2 = %d, want %d", lane, got, want)
		}
	}
}

func TestExecuteGlobalMemory(t *testing.T) {
	// out[tid] = in[tid] + 1
	b := isa.NewBuilder("memtest")
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2) // byte offset
	b.LdParam(2, 0)   // in base
	b.IAdd(3, 2, 1)
	b.LdG(4, 3, 0)
	b.IAddImm(4, 4, 1)
	b.LdParam(5, 1) // out base
	b.IAdd(6, 5, 1)
	b.StG(6, 0, 4)
	b.Exit()
	k := b.MustBuild()

	gmem := mem.NewBacking()
	const inBase, outBase = 0x1000, 0x2000
	gmem.WriteWords(inBase, []uint32{100, 200, 300, 400})

	l := simpleLaunch(t, k, 1, 32, inBase, outBase)
	c := NewCTA(l, 0, 32)
	runWarp(t, c.Warps[0], k.Code, gmem)

	for i, want := range []uint32{101, 201, 301, 401} {
		if got := gmem.LoadWord(outBase + uint32(4*i)); got != want {
			t.Errorf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestExecuteSharedMemory(t *testing.T) {
	// smem[tid] = tid; bar; r = smem[blockDim-1-tid]
	b := isa.NewBuilder("smem")
	b.SharedMem(128)
	b.S2R(0, isa.SrTidX)
	b.ShlImm(1, 0, 2)
	b.StS(1, 0, 0)
	b.S2R(2, isa.SrNTidX)
	b.IAddImm(2, 2, -1)
	b.ISub(2, 2, 0) // blockDim-1-tid
	b.ShlImm(2, 2, 2)
	b.LdS(3, 2, 0)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 32; lane++ {
		if got := w.Reg(3, lane); got != uint32(31-lane) {
			t.Errorf("lane %d read %d, want %d", lane, got, 31-lane)
		}
	}
}

func TestExecuteDivergentBranch(t *testing.T) {
	// if (tid < 2) r1 = 100 else r1 = 200
	b := isa.NewBuilder("div")
	b.S2R(0, isa.SrTidX)
	b.SetpImm(1, isa.CmpILT, 0, 2)
	b.Bra(1, "then", "join")
	b.MovImm(2, 200)
	b.Jmp("join")
	b.Label("then")
	b.MovImm(2, 100)
	b.Label("join")
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 4; lane++ {
		want := uint32(200)
		if lane < 2 {
			want = 100
		}
		if got := w.Reg(2, lane); got != want {
			t.Errorf("lane %d: R2 = %d, want %d", lane, got, want)
		}
	}
}

func TestExecuteLoop(t *testing.T) {
	// r0 = 0; for i in 0..tid: r0 += 2   (divergent trip counts)
	b := isa.NewBuilder("loop")
	b.S2R(0, isa.SrTidX) // trip count = tid
	b.MovImm(1, 0)       // acc
	b.MovImm(2, 0)       // i
	b.Label("head")
	b.Setp(3, isa.CmpILT, 2, 0)
	b.Bra(3, "body", "done")
	b.Jmp("done")
	b.Label("body")
	b.IAddImm(1, 1, 2)
	b.IAddImm(2, 2, 1)
	b.Jmp("head")
	b.Label("done")
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 8; lane++ {
		if got := w.Reg(1, lane); got != uint32(2*lane) {
			t.Errorf("lane %d acc = %d, want %d", lane, got, 2*lane)
		}
	}
}

func TestExecuteFloatOps(t *testing.T) {
	b := isa.NewBuilder("float")
	b.MovImm(0, fbits(3.0))
	b.MovImm(1, fbits(4.0))
	b.FMul(2, 0, 1)    // 12
	b.FAdd(3, 2, 0)    // 15
	b.FFma(4, 0, 1, 3) // 27
	b.FSqrt(5, 1)      // 2
	b.FRcp(6, 1)       // 0.25
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	checks := []struct {
		r    isa.Reg
		want float32
	}{{2, 12}, {3, 15}, {4, 27}, {5, 2}, {6, 0.25}}
	for _, c2 := range checks {
		if got := ffrom(w.Reg(c2.r, 0)); got != c2.want {
			t.Errorf("R%d = %v, want %v", c2.r, got, c2.want)
		}
	}
}

func TestExecuteBarrierFlag(t *testing.T) {
	b := isa.NewBuilder("bar")
	b.Bar()
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 64)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	buf := make([]uint32, 32)
	info := Execute(w, &k.Code[0], mem.NewBacking(), buf)
	if !info.IsBar {
		t.Fatal("barrier must be flagged")
	}
	pc, _, _ := w.Stack.Current()
	if pc != 1 {
		t.Fatalf("pc after barrier = %d, want 1", pc)
	}
}

func TestBlockedState(t *testing.T) {
	b := isa.NewBuilder("blk")
	b.IAdd(2, 0, 1)
	b.Exit()
	k := b.MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	buf := make([]isa.Reg, 4)

	if got := w.BlockedState(k.Code, buf); got != BlockedNot {
		t.Fatalf("fresh warp blocked = %v", got)
	}
	w.SB.MarkPending(0, false)
	if got := w.BlockedState(k.Code, buf); got != BlockedALU {
		t.Fatalf("ALU dep blocked = %v", got)
	}
	w.SB.MarkPending(1, true)
	if got := w.BlockedState(k.Code, buf); got != BlockedMem {
		t.Fatalf("load dep blocked = %v", got)
	}
	w.SB = Scoreboard{}
	w.AtBarrier = true
	if got := w.BlockedState(k.Code, buf); got != BlockedBarrier {
		t.Fatalf("barrier blocked = %v", got)
	}
	w.AtBarrier = false
	w.Finished = true
	if got := w.BlockedState(k.Code, buf); got != BlockedDone {
		t.Fatalf("finished blocked = %v", got)
	}
	if BlockedNot.String() != "ready" || BlockedMem.String() != "mem-dep" {
		t.Error("blocked names wrong")
	}
}

func TestCTABarrierBookkeeping(t *testing.T) {
	k := isa.NewBuilder("k").Bar().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 64)
	c := NewCTA(l, 0, 32)
	c.Arrived = 1
	if c.BarrierReleased() {
		t.Fatal("one of two warps must not release")
	}
	c.Arrived = 2
	if !c.BarrierReleased() {
		t.Fatal("all warps arrived must release")
	}
	c.Arrived, c.Finished = 1, 1
	if !c.BarrierReleased() {
		t.Fatal("finished warps count toward release")
	}
	if c.Done() {
		t.Fatal("not all warps finished")
	}
	c.Finished = 2
	if !c.Done() {
		t.Fatal("all warps finished must be done")
	}
}

func TestCTAStateString(t *testing.T) {
	names := map[CTAState]string{
		CTAPending:         "pending",
		CTAActive:          "active",
		CTAInactiveWaiting: "inactive-waiting",
		CTAInactiveReady:   "inactive-ready",
		CTADone:            "done",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestContextFootprint(t *testing.T) {
	k := isa.NewBuilder("k").Nop().Exit().MustBuild()
	l := simpleLaunch(t, k, 1, 32)
	c := NewCTA(l, 0, 32)
	fp := c.Warps[0].ContextFootprintBytes()
	if fp <= 0 || fp > 1024 {
		t.Fatalf("footprint = %d, implausible", fp)
	}
}

// Property: RegMask set/clear/has behave as a set for arbitrary registers.
func TestRegMaskProperty(t *testing.T) {
	f := func(rs []uint8) bool {
		var m RegMask
		seen := map[isa.Reg]bool{}
		for _, r8 := range rs {
			r := isa.Reg(r8)
			if seen[r] {
				m.Clear(r)
				seen[r] = false
			} else {
				m.Set(r)
				seen[r] = true
			}
		}
		for r := 0; r < 256; r++ {
			if m.Has(isa.Reg(r)) != seen[isa.Reg(r)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: execute-at-issue never writes registers of inactive lanes.
func TestInactiveLanesUntouchedProperty(t *testing.T) {
	b := isa.NewBuilder("p")
	b.S2R(0, isa.SrTidX)
	b.SetpImm(1, isa.CmpILT, 0, 7)
	b.Bra(1, "then", "join")
	b.Jmp("join")
	b.Label("then")
	b.MovImm(2, 0xDEAD)
	b.Label("join")
	b.Exit()
	k := b.MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32)}
	c := NewCTA(l, 0, 32)
	w := c.Warps[0]
	runWarp(t, w, k.Code, mem.NewBacking())
	for lane := 0; lane < 32; lane++ {
		got := w.Reg(2, lane)
		if lane < 7 && got != 0xDEAD {
			t.Errorf("active lane %d missed write: %x", lane, got)
		}
		if lane >= 7 && got != 0 {
			t.Errorf("inactive lane %d corrupted: %x", lane, got)
		}
	}
}
