package warp

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/simt"
)

// aluOps lists every opcode execALULanes serves: the SP and SFU pipelines.
func aluOps() []isa.Opcode {
	var ops []isa.Opcode
	for op := isa.OpNop; op <= isa.OpExit; op++ {
		if u := op.Unit(); u == isa.UnitSP || u == isa.UnitSFU {
			ops = append(ops, op)
		}
	}
	return ops
}

type namedMask struct {
	name string
	mask simt.Mask
}

// testMasks returns full, prefix, sparse and single-lane masks over a warp
// of the given live lane count.
func testMasks(rng *rand.Rand, lanes int) []namedMask {
	full := simt.FullMask(lanes)
	ms := []namedMask{
		{"full", full},
		{"single-low", 1},
		{"single-high", 1 << uint(lanes-1)},
		{"single-rand", 1 << uint(rng.Intn(lanes))},
	}
	if lanes > 1 {
		// A sparse mask with lane 0 off is never a prefix.
		sparse := simt.Mask(rng.Uint64()) & full &^ 1
		if sparse == 0 {
			sparse = 1 << uint(lanes-1)
		}
		ms = append(ms,
			namedMask{"prefix", simt.FullMask(1 + rng.Intn(lanes-1))},
			namedMask{"sparse", sparse},
			namedMask{"alternate", simt.Mask(0x5555_5555_5555_5555) & full})
	}
	return ms
}

// randInstr builds a random instance of op over the first nregs
// registers; rz names the operand slot forced to RZ (dst, a, b, c) or ""
// for none.
func randInstr(rng *rand.Rand, op isa.Opcode, useImm bool, rz string, nregs, nparams int) isa.Instr {
	reg := func(slot string) isa.Reg {
		if slot == rz {
			return isa.RZ
		}
		return isa.Reg(rng.Intn(nregs))
	}
	in := isa.Instr{Op: op, Dst: reg("dst"), SrcA: reg("a"), SrcB: reg("b"), SrcC: reg("c"),
		Imm: rng.Uint32(), UseImm: useImm}
	switch op {
	case isa.OpS2R:
		in.Imm = uint32(rng.Intn(int(isa.SrWarpID) + 1))
	case isa.OpLdParam:
		in.Imm = uint32(rng.Intn(nparams))
	case isa.OpSetp:
		kind := uint32(rng.Intn(int(isa.CmpFGT) + 1))
		if useImm {
			in.Target = int32(kind)
		} else {
			in.Imm = kind
		}
	}
	return in
}

// TestExecALULanesMatchesEvalALU checks the row-wise lane loops against the
// per-lane reference: for every ALU and SFU opcode, immediate or register
// B, RZ in each operand slot (the destination included), and full,
// prefix, sparse and single-lane masks over full and partial warps, the
// register file after execALULanes must equal the one the per-lane
// evalALU loop produces. The reference writes only active lanes, so the
// comparison also proves inactive lanes stay untouched.
func TestExecALULanesMatchesEvalALU(t *testing.T) {
	const warpSize, nregs = 32, 6
	k := isa.NewBuilder("alu_prop").ReserveRegs(nregs).SharedMem(64).Nop().Exit().MustBuild()
	params := []uint32{7, 0xFFFF_FFF0, 3}
	// Two CTAs of 45 threads: warp 0 is full, warp 1 has 13 live lanes.
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(2), BlockDim: isa.Dim1(45), Params: params}
	c := NewCTA(l, 1, warpSize)
	rng := rand.New(rand.NewSource(1))
	cases := 0
	for _, w := range c.Warps {
		for _, op := range aluOps() {
			for _, useImm := range []bool{false, true} {
				for _, rz := range []string{"", "dst", "a", "b", "c"} {
					for _, nm := range testMasks(rng, w.Lanes) {
						mask := nm.mask
						for trial := 0; trial < 4; trial++ {
							// Trial 0 uses small signed values, which exercise
							// the signed compares and min/max; the rest use
							// random bits.
							for i := range w.Regs {
								if trial == 0 {
									w.Regs[i] = uint32(rng.Intn(9) - 4)
								} else {
									w.Regs[i] = rng.Uint32()
								}
							}
							in := randInstr(rng, op, useImm, rz, nregs, len(params))
							ref := *w
							ref.Regs = append([]uint32(nil), w.Regs...)
							for m := mask; m != 0; m &= m - 1 {
								lane := bits.TrailingZeros64(uint64(m))
								ref.SetReg(in.Dst, lane, evalALU(&ref, &in, lane))
							}
							execALULanes(w, &in, mask)
							for i := range w.Regs {
								if w.Regs[i] != ref.Regs[i] && !bothNaN(op, w.Regs[i], ref.Regs[i]) {
									t.Fatalf("warp %d (%d lanes) %v imm=%v rz=%q mask %s=%#x: reg %d lane %d = %#x, per-lane reference %#x",
										w.IdxInCTA, w.Lanes, op, useImm, rz, nm.name, uint64(mask),
										i/warpSize, i%warpSize, w.Regs[i], ref.Regs[i])
								}
							}
							cases++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// bothNaN reports whether a float ALU op produced NaN on both paths. Go
// leaves the payload of a NaN result unspecified: for a commutative op the
// compiler may order the operands either way, and builds differ (the race
// detector's does), so only NaN-ness is compared.
func bothNaN(op isa.Opcode, x, y uint32) bool {
	switch op {
	case isa.OpFAdd, isa.OpFMul, isa.OpFFma:
		return math.IsNaN(float64(ffrom(x))) && math.IsNaN(float64(ffrom(y)))
	}
	return false
}

// TestExecALULanesMissingParamPanics keeps the kernel-bug panic of a
// ldparam past the launch's parameters on the row-wise path, for prefix
// and sparse masks alike.
func TestExecALULanesMissingParamPanics(t *testing.T) {
	k := isa.NewBuilder("ldp").LdParam(0, 2).Exit().MustBuild()
	l := &isa.Launch{Kernel: k, GridDim: isa.Dim1(1), BlockDim: isa.Dim1(32), Params: []uint32{1, 2}}
	for _, mask := range []simt.Mask{simt.FullMask(32), 0b1010} {
		w := NewCTA(l, 0, 32).Warps[0]
		func() {
			defer func() {
				r := recover()
				msg, _ := r.(string)
				if !strings.Contains(msg, "missing param 2") {
					t.Errorf("mask %#x: recovered %v, want the missing-param panic", uint64(mask), r)
				}
			}()
			execALULanes(w, &k.Code[0], mask)
		}()
	}
}
