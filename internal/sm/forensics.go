package sm

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/warp"
)

// This file is the SM's failure-forensics surface: a point-in-time state
// snapshot (Diagnose) attached to abort errors, and an exhaustive
// invariant checker (CheckInvariants) that re-derives every piece of
// cached bookkeeping from scratch. Both are pure reads — taking a
// snapshot or running the checker must never perturb a simulation.

// BarrierDiag describes one resident CTA with warps parked at a barrier.
type BarrierDiag struct {
	CTA      int `json:"cta"`      // flat CTA id within its grid
	Kernel   int `json:"kernel"`   // launch index (multi-kernel runs)
	Arrived  int `json:"arrived"`  // warps parked at the barrier
	Finished int `json:"finished"` // warps that have exited
	Warps    int `json:"warps"`    // total warps in the CTA
}

// Diag is a point-in-time snapshot of one SM, captured when a run aborts
// so the failure report shows where every warp was stuck.
type Diag struct {
	SM     int  `json:"sm"`
	Asleep bool `json:"asleep,omitempty"` // in per-SM fast-forward at abort

	// Residency and capacity bookkeeping.
	ResidentCTAs int `json:"resident_ctas"`
	ActiveCTAs   int `json:"active_ctas"`
	RegsUsed     int `json:"regs_used"`
	SMemUsed     int `json:"smem_used"`
	WarpsUsed    int `json:"warps_used"`
	ThreadsUsed  int `json:"threads_used"`

	// Warp issue-class counters summed over the SM's schedulers (the
	// fast path's incrementally maintained classification).
	Ready          int `json:"ready"`
	BlockedMem     int `json:"blocked_mem"`
	BlockedALU     int `json:"blocked_alu"`
	BlockedBarrier int `json:"blocked_barrier"`
	RestoreReady   int `json:"restore_ready,omitempty"`

	// ReadyMask is the slot-indexed ready bitset (64 slots per word).
	ReadyMask []uint64 `json:"ready_mask"`

	// In-flight memory operations.
	LSUOps           int `json:"lsu_ops"`           // warp memory instructions queued
	LSULinesPending  int `json:"lsu_lines_pending"` // coalesced lines not yet injected
	OutstandingLoads int `json:"outstanding_loads"` // global loads awaiting responses
	WheelPending     int `json:"wheel_pending"`     // local writebacks not yet retired

	// CTAStates counts resident CTAs by state name.
	CTAStates map[string]int `json:"cta_states,omitempty"`

	// Barriers lists every CTA with warps parked at a barrier.
	Barriers []BarrierDiag `json:"barriers,omitempty"`
}

// Diagnose captures the SM's current state for a failure report.
func (s *SM) Diagnose() Diag {
	d := Diag{
		SM:           s.ID,
		Asleep:       s.asleep,
		ResidentCTAs: len(s.Resident),
		ActiveCTAs:   s.ActiveCTAs,
		RegsUsed:     s.RegsUsed,
		SMemUsed:     s.SMemUsed,
		WarpsUsed:    s.WarpsUsed,
		ThreadsUsed:  s.ThreadsUsed,
		RestoreReady: s.restoreReady,
		ReadyMask:    append([]uint64(nil), s.ready...),
		LSUOps:       s.LSUQueueLen(),
		WheelPending: s.wb.pending,
	}
	for _, sc := range s.schedulers {
		d.Ready += sc.nReady
		d.BlockedMem += sc.nMem
		d.BlockedALU += sc.nALU
		d.BlockedBarrier += sc.nBar
	}
	for _, idx := range s.lsuQueue[s.lsuHead:] {
		op := &s.lsuPool[idx]
		d.LSULinesPending += len(op.lines) - op.next
	}
	for _, c := range s.Resident {
		if d.CTAStates == nil {
			d.CTAStates = map[string]int{}
		}
		d.CTAStates[c.State.String()]++
		for _, w := range c.Warps {
			d.OutstandingLoads += w.OutstandingLoads
		}
		if c.Arrived > 0 {
			d.Barriers = append(d.Barriers, BarrierDiag{
				CTA:      c.FlatID,
				Kernel:   c.KernelID,
				Arrived:  c.Arrived,
				Finished: c.Finished,
				Warps:    len(c.Warps),
			})
		}
	}
	return d
}

// CheckInvariants re-derives the SM's cached bookkeeping from scratch and
// reports every mismatch (joined with errors.Join), or nil. It validates:
//
//   - issue-slot conservation: issued + stalls + idle samples equal
//     cycles × schedulers (every scheduler accounts exactly one slot per
//     simulated cycle, including fast-forwarded spans);
//   - capacity and scheduling bounds: used resources within the SM's
//     limits and non-negative;
//   - residency accounting: RegsUsed/SMemUsed, the resident-warp count
//     (and WarpsUsed/ThreadsUsed/ActiveCTAs for active CTAs) match a
//     recount over Resident;
//   - ready-bitset consistency: the bitset's population matches the
//     schedulers' cached ready counters and every set bit names a bound,
//     ready warp;
//   - controller bookkeeping: ReadyCTAs matches a recount of pending and
//     inactive-ready resident CTAs, every resident CTA's Classes matches
//     a recount of its warps' cached classes, every warp of an active
//     CTA caches the class BlockedState derives for it, and the cached
//     active-CTA list (unless marked stale) holds exactly the active
//     resident CTAs in resident order;
//   - writeback-wheel occupancy: the pending counter matches a recount of
//     the ring's entries.
//
// The checker must only run at a cycle boundary (after the engine's cycle
// barrier), where asleep SMs hold consistently frozen statistics.
func (s *SM) CheckInvariants() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("SM%d: "+format, append([]any{s.ID}, args...)...))
	}

	st := &s.Stats
	samples := st.SlotIssued + st.SlotStallMem + st.SlotStallALU +
		st.SlotStallBar + st.SlotStallStr + st.SlotIdle
	if want := st.Cycles * int64(len(s.schedulers)); samples != want {
		fail("issue-slot conservation: %d samples != %d cycles x %d schedulers = %d",
			samples, st.Cycles, len(s.schedulers), want)
	}

	if s.RegsUsed < 0 || s.RegsUsed > s.Cfg.RegFileSize {
		fail("RegsUsed %d outside [0, %d]", s.RegsUsed, s.Cfg.RegFileSize)
	}
	if s.SMemUsed < 0 || s.SMemUsed > s.Cfg.SharedMemPerSM {
		fail("SMemUsed %d outside [0, %d]", s.SMemUsed, s.Cfg.SharedMemPerSM)
	}
	if s.WarpsUsed < 0 || s.WarpsUsed > s.MaxWarps {
		fail("WarpsUsed %d outside [0, %d]", s.WarpsUsed, s.MaxWarps)
	}
	if s.ThreadsUsed < 0 || s.ThreadsUsed > s.MaxThreads {
		fail("ThreadsUsed %d outside [0, %d]", s.ThreadsUsed, s.MaxThreads)
	}
	if s.ActiveCTAs < 0 || s.ActiveCTAs > s.MaxCTAs {
		fail("ActiveCTAs %d outside [0, %d]", s.ActiveCTAs, s.MaxCTAs)
	}

	regs, smem, warps, threads, active, resWarps := 0, 0, 0, 0, 0, 0
	for _, c := range s.Resident {
		regs += c.RegsAlloc
		smem += c.SMemAlloc
		resWarps += len(c.Warps)
		if c.State == warp.CTAActive || c.State == warp.CTARestoring {
			warps += len(c.Warps)
			threads += c.Threads
			active++
		}
	}
	if regs != s.RegsUsed {
		fail("RegsUsed %d but resident CTAs hold %d", s.RegsUsed, regs)
	}
	if smem != s.SMemUsed {
		fail("SMemUsed %d but resident CTAs hold %d", s.SMemUsed, smem)
	}
	if warps != s.WarpsUsed {
		fail("WarpsUsed %d but active CTAs bind %d warps", s.WarpsUsed, warps)
	}
	if threads != s.ThreadsUsed {
		fail("ThreadsUsed %d but active CTAs bind %d threads", s.ThreadsUsed, threads)
	}
	if active != s.ActiveCTAs {
		fail("ActiveCTAs %d but %d resident CTAs are active", s.ActiveCTAs, active)
	}
	if resWarps != s.residentWarps {
		fail("resident-warp count %d but resident CTAs hold %d warps", s.residentWarps, resWarps)
	}

	ready := 0
	for _, c := range s.Resident {
		if readyState(c.State) {
			ready++
		}
		var classes [warp.BlockedDone]int
		for _, w := range c.Warps {
			if w.IssueState != warp.BlockedDone {
				classes[w.IssueState]++
			}
			if c.State != warp.CTAActive || w.Slot < 0 {
				continue
			}
			if got := w.BlockedState(c.Launch.Kernel.Code, s.srcBuf); got != w.IssueState {
				fail("CTA %d warp %d caches class %v but BlockedState is %v",
					c.FlatID, w.IdxInCTA, w.IssueState, got)
			}
		}
		if classes != c.Classes {
			fail("CTA %d class counts %v but its warps' cached classes count %v",
				c.FlatID, c.Classes, classes)
		}
	}
	if ready != s.ReadyCTAs {
		fail("ReadyCTAs %d but %d resident CTAs are ready", s.ReadyCTAs, ready)
	}
	if !s.activeStale {
		var want []*warp.CTA
		for _, c := range s.Resident {
			if c.State == warp.CTAActive {
				want = append(want, c)
			}
		}
		if !slices.Equal(want, s.active) {
			fail("cached active-CTA list (%d CTAs) differs from the %d active resident CTAs in resident order",
				len(s.active), len(want))
		}
	}

	pop := 0
	for _, wd := range s.ready {
		pop += bits.OnesCount64(wd)
	}
	nReady := 0
	for i, sc := range s.schedulers {
		if sc.nReady < 0 || sc.nMem < 0 || sc.nALU < 0 || sc.nBar < 0 {
			fail("scheduler %d has a negative class counter (ready=%d mem=%d alu=%d bar=%d)",
				i, sc.nReady, sc.nMem, sc.nALU, sc.nBar)
		}
		nReady += sc.nReady
	}
	if pop != nReady {
		fail("ready bitset population %d != cached ready count %d", pop, nReady)
	}
	for wi, wd := range s.ready {
		for wd != 0 {
			slot := wi*64 + bits.TrailingZeros64(wd)
			wd &= wd - 1
			if slot >= len(s.Slots) || s.Slots[slot] == nil {
				fail("ready bit set for empty slot %d", slot)
				continue
			}
			if got := s.Slots[slot].IssueState; got != warp.BlockedNot {
				fail("ready bit set for slot %d but its cached class is %v", slot, got)
			}
		}
	}

	wheel := 0
	for _, entries := range s.wb.slots {
		wheel += len(entries)
	}
	if wheel != s.wb.pending {
		fail("writeback wheel holds %d entries but pending counter is %d", wheel, s.wb.pending)
	}

	return errors.Join(errs...)
}
