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

// execALULanes applies a non-memory, non-control instruction to all active
// lanes. The hottest ops get dedicated lane loops so the opcode dispatch,
// the immediate-select branch, and unused-operand reads happen once per
// warp instead of once per lane; everything else falls through to the
// per-lane reference evaluator (evalALU), which stays the single source of
// semantic truth. Each specialized loop must compute exactly what evalALU
// computes for its opcode.
func execALULanes(w *Warp, in *isa.Instr, active simt.Mask) {
	dst := in.Dst
	switch in.Op {
	case isa.OpIAdd:
		if in.UseImm {
			imm := in.Imm
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, w.Reg(in.SrcA, lane)+imm)
			}
		} else {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, w.Reg(in.SrcA, lane)+w.Reg(in.SrcB, lane))
			}
		}
	case isa.OpISub:
		if in.UseImm {
			imm := in.Imm
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, w.Reg(in.SrcA, lane)-imm)
			}
		} else {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, w.Reg(in.SrcA, lane)-w.Reg(in.SrcB, lane))
			}
		}
	case isa.OpIMad:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			a := w.Reg(in.SrcA, lane)
			var b uint32
			if in.UseImm {
				b = in.Imm
			} else {
				b = w.Reg(in.SrcB, lane)
			}
			w.SetReg(dst, lane, a*b+w.Reg(in.SrcC, lane))
		}
	case isa.OpIMin:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			a := w.Reg(in.SrcA, lane)
			b := in.Imm
			if !in.UseImm {
				b = w.Reg(in.SrcB, lane)
			}
			if int32(b) < int32(a) {
				a = b
			}
			w.SetReg(dst, lane, a)
		}
	case isa.OpIMax:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			a := w.Reg(in.SrcA, lane)
			b := in.Imm
			if !in.UseImm {
				b = w.Reg(in.SrcB, lane)
			}
			if int32(b) > int32(a) {
				a = b
			}
			w.SetReg(dst, lane, a)
		}
	case isa.OpMov:
		if in.UseImm {
			imm := in.Imm
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, imm)
			}
		} else {
			for m := active; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros64(uint64(m))
				w.SetReg(dst, lane, w.Reg(in.SrcA, lane))
			}
		}
	case isa.OpSetp:
		kind := isa.CmpKind(in.Imm)
		if in.UseImm {
			kind = isa.CmpKind(in.Target)
		}
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			a := w.Reg(in.SrcA, lane)
			b := in.Imm
			if !in.UseImm {
				b = w.Reg(in.SrcB, lane)
			}
			var v uint32
			if compare(kind, a, b) {
				v = 1
			}
			w.SetReg(dst, lane, v)
		}
	case isa.OpSelp:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			v := w.Reg(in.SrcA, lane)
			if w.Reg(in.SrcC, lane) == 0 {
				if in.UseImm {
					v = in.Imm
				} else {
					v = w.Reg(in.SrcB, lane)
				}
			}
			w.SetReg(dst, lane, v)
		}
	default:
		for m := active; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(uint64(m))
			w.SetReg(dst, lane, evalALU(w, in, lane))
		}
	}
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
		p := w.CTA.Launch.Params
		i := int(in.Imm)
		if i >= len(p) {
			panic(fmt.Sprintf("warp: kernel %q reads missing param %d",
				w.CTA.Launch.Kernel.Name, i))
		}
		return p[i]
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
