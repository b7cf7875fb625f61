package gpu

// The engine is the per-cycle simulation loop's inner step: every cycle
// runs SM[i].Cycle() in SM-index order on the calling goroutine. Runs
// scale by running independent simulations side by side (the harness
// worker pool, the sweep fabric), never by splitting one run.
//
// Per-SM fast-forward: an SM that is quiescent at the end of its cycle
// goes to sleep and is skipped until an event wakes it or its local
// writeback wheel comes due. Skipped spans are charged through
// AccountSkipped at wake, so results are identical to simulating every
// cycle (Options.DisableIdleSkip turns sleeping off).

// stepSMs advances every SM by one core cycle and reports whether any
// warp instruction issued anywhere.
func (m *machine) stepSMs() bool {
	now := m.ev.Now()
	allowSleep := !m.opts.DisableIdleSkip
	issued := false
	for _, s := range m.sms {
		if s.Asleep() {
			if !s.WheelWakeDue(now) {
				continue
			}
			s.WakeUp()
		}
		if s.Cycle() {
			issued = true
		} else if allowSleep {
			s.TrySleep()
		}
	}
	return issued
}

// quiescent reports whether no SM can change state without an event.
func (m *machine) quiescent() bool {
	for _, s := range m.sms {
		if !s.Quiescent() {
			return false
		}
	}
	return true
}

// nextEvent returns the earliest cycle at which anything — the shared
// queue or any SM's local writeback wheel — will change state. ok=false
// means the simulation can make no progress.
func (m *machine) nextEvent() (int64, bool) {
	next, ok := m.ev.NextCycle()
	for _, s := range m.sms {
		if c, cok := s.NextWake(); cok && (!ok || c < next) {
			next, ok = c, true
		}
	}
	return next, ok
}
