package warp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/simt"
)

// ExecInfo reports what a functionally executed instruction did, for the
// timing model to act on.
type ExecInfo struct {
	Active simt.Mask // lanes that executed the instruction
	Lanes  int       // Active.Count(), precomputed
	IsExit bool      // warp hit exit (Finished may now be set)
	IsBar  bool      // warp arrived at a barrier
	MemOp  bool      // instruction was a load/store
	Addrs  []uint32  // per-lane byte addresses for memory ops (scratch-backed)
}

// Execute runs the instruction at the warp's current PC for all active
// lanes, updating register values, the SIMT stack, and functional memory
// (execute-at-issue semantics; timing is the caller's concern). addrBuf
// must have capacity for one address per lane and is reused in the
// returned ExecInfo. The caller is responsible for scoreboard and barrier
// bookkeeping.
func Execute(w *Warp, in *isa.Instr, gmem *mem.Backing, addrBuf []uint32) ExecInfo {
	_, active, ok := w.Stack.Current()
	if !ok {
		return ExecInfo{}
	}
	info := ExecInfo{Active: active, Lanes: active.Count()}

	switch in.Op {
	case isa.OpBra:
		var taken simt.Mask
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			if w.Reg(in.SrcA, lane) != 0 {
				taken |= 1 << uint(lane)
			}
		}
		w.Stack.Branch(taken, in.Target, in.Reconv)
		return info
	case isa.OpJmp:
		w.Stack.Jump(in.Target)
		return info
	case isa.OpExit:
		w.Stack.Exit(active)
		info.IsExit = true
		if w.Stack.Finished() {
			w.Finished = true
		}
		return info
	case isa.OpBar:
		w.Stack.Advance()
		info.IsBar = true
		return info
	}

	if in.Op.Unit() == isa.UnitMem {
		info.MemOp = true
		info.Addrs = addrBuf[:w.warpW]
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			info.Addrs[lane] = w.Reg(in.SrcA, lane) + in.Imm
		}
		switch in.Op {
		case isa.OpLdShared, isa.OpStShared:
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				if in.Op == isa.OpLdShared {
					w.SetReg(in.Dst, lane, w.loadShared(info.Addrs[lane]))
				} else {
					w.storeShared(info.Addrs[lane], w.Reg(in.SrcC, lane))
				}
			}
		default: // global load/store/atomic
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				addr := info.Addrs[lane]
				switch in.Op {
				case isa.OpLdGlobal:
					w.SetReg(in.Dst, lane, gmem.LoadWord(addr))
				case isa.OpStGlobal:
					gmem.StoreWord(addr, w.Reg(in.SrcC, lane))
				case isa.OpAtomAdd:
					old := gmem.LoadWord(addr)
					gmem.StoreWord(addr, old+w.Reg(in.SrcC, lane))
					w.SetReg(in.Dst, lane, old)
				}
			}
		}
		w.Stack.Advance()
		return info
	}

	execALULanes(w, in, active)
	w.Stack.Advance()
	return info
}

// zeroRow backs every read of RZ in row-wise execution: a shared row of
// zeros as wide as the widest warp. It is never written.
var zeroRow [64]uint32

// row returns the first n lanes of register r's row in the warp's
// register file (Regs is laid out [reg*warpSize + lane]); RZ reads the
// shared zero row.
func (w *Warp) row(r isa.Reg, n int) []uint32 {
	if r == isa.RZ {
		return zeroRow[:n:n]
	}
	base := int(r) * w.warpW
	return w.Regs[base : base+n : base+n]
}

// execALULanes applies a non-memory, non-control instruction to the active
// lanes a row at a time: each operand's register row is sliced once per
// instruction and one tight loop per opcode computes lanes 0 up to the
// highest active lane. When the mask is contiguous from lane 0 (no
// divergence, or a partial last warp) the loop writes straight into the
// destination row. Otherwise it computes into a stack scratch row and
// commits only the active lanes, so inactive lanes are never written; an
// RZ destination discards the result. Computing an inactive lane's value
// is harmless: lanes never read each other, and no ALU op traps.
//
// evalALU stays the per-lane reference. It still executes the SFU ops
// (frcp/fsqrt/fsin/fexp), and each row loop must compute exactly what
// evalALU computes for its opcode (TestExecALULanesMatchesEvalALU).
func execALULanes(w *Warp, in *isa.Instr, active simt.Mask) {
	if active == 0 || in.Op == isa.OpNop {
		return // a nop rewrites its destination with its own value
	}
	if in.Unit() != isa.UnitSP {
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			w.SetReg(in.Dst, lane, evalALU(w, in, lane))
		}
		return
	}
	n := bits.Len64(uint64(active))
	if in.Dst != isa.RZ && active == simt.Mask(1)<<uint(n)-1 {
		aluRow(w, in, w.row(in.Dst, n))
		return
	}
	var scratch [64]uint32
	out := scratch[:n:n]
	aluRow(w, in, out)
	if in.Dst == isa.RZ {
		return
	}
	dst := w.row(in.Dst, n)
	for m := active; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros64(uint64(m))
		dst[lane] = out[lane]
	}
}

// aluRow computes an SP-pipeline instruction for lanes [0, len(out)) into
// out. out may be the destination row itself: every loop reads lane i of
// its sources before writing lane i, so a destination that is also a
// source is safe.
func aluRow(w *Warp, in *isa.Instr, out []uint32) {
	n := len(out)
	switch in.Op {
	case isa.OpMov:
		if in.UseImm {
			fill(out, in.Imm)
		} else {
			copy(out, w.row(in.SrcA, n))
		}
		return
	case isa.OpLdParam:
		fill(out, w.param(in.Imm))
		return
	case isa.OpS2R:
		switch sr := isa.Special(in.Imm); sr {
		case isa.SrTidX, isa.SrTidY, isa.SrTidZ, isa.SrLaneID:
			for i := range out {
				out[i] = w.special(sr, i)
			}
		default: // uniform across the warp
			fill(out, w.special(sr, 0))
		}
		return
	}

	a := w.row(in.SrcA, n)
	var b []uint32
	if in.UseImm {
		var imm [64]uint32
		b = imm[:n:n]
		fill(b, in.Imm)
	} else {
		b = w.row(in.SrcB, n)
	}
	switch in.Op {
	case isa.OpIAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case isa.OpISub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case isa.OpIMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case isa.OpIMad:
		c := w.row(in.SrcC, n)
		for i := range out {
			out[i] = a[i]*b[i] + c[i]
		}
	case isa.OpIMin:
		for i := range out {
			out[i] = uint32(min(int32(a[i]), int32(b[i])))
		}
	case isa.OpIMax:
		for i := range out {
			out[i] = uint32(max(int32(a[i]), int32(b[i])))
		}
	case isa.OpAnd:
		for i := range out {
			out[i] = a[i] & b[i]
		}
	case isa.OpOr:
		for i := range out {
			out[i] = a[i] | b[i]
		}
	case isa.OpXor:
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
	case isa.OpShl:
		for i := range out {
			out[i] = a[i] << (b[i] & 31)
		}
	case isa.OpShr:
		for i := range out {
			out[i] = a[i] >> (b[i] & 31)
		}
	case isa.OpFAdd:
		for i := range out {
			out[i] = fbits(ffrom(a[i]) + ffrom(b[i]))
		}
	case isa.OpFMul:
		for i := range out {
			out[i] = fbits(ffrom(a[i]) * ffrom(b[i]))
		}
	case isa.OpFFma:
		c := w.row(in.SrcC, n)
		for i := range out {
			out[i] = fbits(ffrom(a[i])*ffrom(b[i]) + ffrom(c[i]))
		}
	case isa.OpSetp:
		kind := isa.CmpKind(in.Imm)
		if in.UseImm {
			kind = isa.CmpKind(in.Target)
		}
		setpRow(out, a, b, kind)
	case isa.OpSelp:
		c := w.row(in.SrcC, n)
		for i := range out {
			v := b[i]
			if c[i] != 0 {
				v = a[i]
			}
			out[i] = v
		}
	default:
		for i := range out {
			out[i] = evalALU(w, in, i)
		}
	}
}

// setpRow is the row form of compare: one loop per comparison kind, each
// storing 1 where the comparison holds and 0 elsewhere.
func setpRow(out, a, b []uint32, kind isa.CmpKind) {
	switch kind {
	case isa.CmpILT:
		for i := range out {
			out[i] = b2u(int32(a[i]) < int32(b[i]))
		}
	case isa.CmpILE:
		for i := range out {
			out[i] = b2u(int32(a[i]) <= int32(b[i]))
		}
	case isa.CmpIEQ:
		for i := range out {
			out[i] = b2u(a[i] == b[i])
		}
	case isa.CmpINE:
		for i := range out {
			out[i] = b2u(a[i] != b[i])
		}
	case isa.CmpIGE:
		for i := range out {
			out[i] = b2u(int32(a[i]) >= int32(b[i]))
		}
	case isa.CmpIGT:
		for i := range out {
			out[i] = b2u(int32(a[i]) > int32(b[i]))
		}
	case isa.CmpFLT:
		for i := range out {
			out[i] = b2u(ffrom(a[i]) < ffrom(b[i]))
		}
	case isa.CmpFGT:
		for i := range out {
			out[i] = b2u(ffrom(a[i]) > ffrom(b[i]))
		}
	default:
		compare(kind, 0, 0) // panics on the unknown kind
	}
}

func fill(out []uint32, v uint32) {
	for i := range out {
		out[i] = v
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// loadShared reads a word from the CTA's shared memory; out-of-bounds
// offsets wrap, modeling the hardware's address truncation without
// crashing the simulation.
func (w *Warp) loadShared(addr uint32) uint32 {
	sm := w.CTA.SMem
	if len(sm) == 0 {
		return 0
	}
	return sm[(addr>>2)%uint32(len(sm))]
}

func (w *Warp) storeShared(addr, v uint32) {
	sm := w.CTA.SMem
	if len(sm) == 0 {
		return
	}
	sm[(addr>>2)%uint32(len(sm))] = v
}

// evalALU computes the result of a non-memory, non-control instruction for
// one lane.
func evalALU(w *Warp, in *isa.Instr, lane int) uint32 {
	a := w.Reg(in.SrcA, lane)
	var b uint32
	if in.UseImm {
		b = in.Imm
	} else {
		b = w.Reg(in.SrcB, lane)
	}
	c := w.Reg(in.SrcC, lane)

	switch in.Op {
	case isa.OpNop:
		return w.Reg(in.Dst, lane) // no-op preserves the destination
	case isa.OpMov:
		if in.UseImm {
			return in.Imm
		}
		return a
	case isa.OpS2R:
		return w.special(isa.Special(in.Imm), lane)
	case isa.OpLdParam:
		return w.param(in.Imm)
	case isa.OpIAdd:
		return a + b
	case isa.OpISub:
		return a - b
	case isa.OpIMul:
		return a * b
	case isa.OpIMad:
		return a*b + c
	case isa.OpIMin:
		if int32(a) < int32(b) {
			return a
		}
		return b
	case isa.OpIMax:
		if int32(a) > int32(b) {
			return a
		}
		return b
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		return a >> (b & 31)
	case isa.OpFAdd:
		return fbits(ffrom(a) + ffrom(b))
	case isa.OpFMul:
		return fbits(ffrom(a) * ffrom(b))
	case isa.OpFFma:
		return fbits(ffrom(a)*ffrom(b) + ffrom(c))
	case isa.OpFRcp:
		return fbits(1 / ffrom(a))
	case isa.OpFSqrt:
		return fbits(float32(math.Sqrt(float64(ffrom(a)))))
	case isa.OpFSin:
		return fbits(float32(math.Sin(float64(ffrom(a)))))
	case isa.OpFExp:
		return fbits(float32(math.Exp2(float64(ffrom(a)))))
	case isa.OpSetp:
		kind := isa.CmpKind(in.Imm)
		if in.UseImm {
			kind = isa.CmpKind(in.Target)
		}
		if compare(kind, a, b) {
			return 1
		}
		return 0
	case isa.OpSelp:
		if c != 0 {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("warp: unhandled opcode %v", in.Op))
	}
}

func compare(kind isa.CmpKind, a, b uint32) bool {
	switch kind {
	case isa.CmpILT:
		return int32(a) < int32(b)
	case isa.CmpILE:
		return int32(a) <= int32(b)
	case isa.CmpIEQ:
		return a == b
	case isa.CmpINE:
		return a != b
	case isa.CmpIGE:
		return int32(a) >= int32(b)
	case isa.CmpIGT:
		return int32(a) > int32(b)
	case isa.CmpFLT:
		return ffrom(a) < ffrom(b)
	case isa.CmpFGT:
		return ffrom(a) > ffrom(b)
	default:
		panic(fmt.Sprintf("warp: unhandled comparison %d", kind))
	}
}

// param returns kernel launch parameter i. Reading past the launch's
// parameters is a kernel bug, so it panics.
func (w *Warp) param(i uint32) uint32 {
	p := w.CTA.Launch.Params
	if int(i) >= len(p) {
		panic(fmt.Sprintf("warp: kernel %q reads missing param %d",
			w.CTA.Launch.Kernel.Name, i))
	}
	return p[i]
}

// special evaluates an S2R read for one lane.
func (w *Warp) special(sr isa.Special, lane int) uint32 {
	l := w.CTA.Launch
	tid := w.GlobalTid(lane)
	bd := l.BlockDim
	switch sr {
	case isa.SrTidX:
		return uint32(tid % bd.X)
	case isa.SrTidY:
		return uint32((tid / bd.X) % bd.Y)
	case isa.SrTidZ:
		return uint32(tid / (bd.X * bd.Y))
	case isa.SrCTAIdX:
		return uint32(w.CTA.ID.X)
	case isa.SrCTAIdY:
		return uint32(w.CTA.ID.Y)
	case isa.SrCTAIdZ:
		return uint32(w.CTA.ID.Z)
	case isa.SrNTidX:
		return uint32(bd.X)
	case isa.SrNTidY:
		return uint32(bd.Y)
	case isa.SrNTidZ:
		return uint32(bd.Z)
	case isa.SrNCTAIdX:
		return uint32(l.GridDim.X)
	case isa.SrNCTAIdY:
		return uint32(l.GridDim.Y)
	case isa.SrNCTAIdZ:
		return uint32(l.GridDim.Z)
	case isa.SrLaneID:
		return uint32(lane)
	case isa.SrWarpID:
		return uint32(w.IdxInCTA)
	default:
		panic(fmt.Sprintf("warp: unhandled special register %d", sr))
	}
}

func ffrom(v uint32) float32 { return math.Float32frombits(v) }
func fbits(f float32) uint32 { return math.Float32bits(f) }
