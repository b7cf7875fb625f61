package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	vtsim "repro"
	"repro/internal/config"
	"repro/internal/gpu"
	"repro/internal/harness"
	"repro/internal/resultstore"
	"repro/internal/sweepobs"
)

// sweepDilute is the grid dilution of both sweep workloads. A cold pass
// commits about 290 store transactions of five fsyncs each whatever
// the dilution, and fsync latency drifts from run to run, so larger
// grids make the pass steadier; at dilution 20 a cold pass simulates
// for about two seconds on a 2-core host and stays near 100 MB
// resident, while at 10 the checkpoint envelopes push it past 400 MB.
const sweepDilute = 20

// multiKernelID is the experiment that calls gpu.RunMulti directly,
// bypassing the harness memo, store and RunMetrics; it re-simulates on
// a warm store, so the store probe leaves it out.
const multiKernelID = "fig-multikernel"

// vtTarget is the long-latency, scheduling-limited set EXPERIMENTS.md
// names as VT's regime; baselineControl holds the capacity-limited and
// compute-, bandwidth- or pipeline-bound kernels VT cannot help.
var (
	vtTarget        = []string{"bfs", "spmv", "gaussian", "dwt2d", "particlefilter", "heartwall", "pathfinder", "lud", "nw", "transpose", "nn"}
	baselineControl = []string{"hotspot", "cfd", "srad", "reduce", "gemm", "montecarlo", "kmeans", "stencil3d", "backprop", "streamcluster", "mummer", "vecadd"}
)

// workload is one benchmark workload. setup is timed (setup_s) and may
// be called several times; each call replaces the previous state. pass
// runs one closed-loop pass over the workload's inputs in the order rng
// gives and checks every output against the golden digests.
type workload interface {
	setup(scratch string) error
	pass(rng *rand.Rand, tr *sweepobs.Tracer) (passStats, error)
	// engineWorkers is the intra-run parallelism the workload's
	// simulations resolve to; harnessWorkers its sweep concurrency
	// (0 for single-run workloads); dilute its grid dilution.
	engineWorkers() int
	harnessWorkers() int
	dilute() int
}

// passStats is what one pass did.
type passStats struct {
	wall     time.Duration
	ops      int // checked operations: simulations or experiment tables
	failed   int // operations that errored or mismatched their golden digest
	requests int // vtsim.Run calls, or harness job requests
	res      resultTotals
	run      harness.RunMetrics
	stages   map[string]sweepobs.StageTotal
	jobs     []time.Duration // harness job latencies
	bytes    int64           // result-store bytes on disk afterwards
	// peakKiB is the process's peak RSS during each operation of the
	// pass: each vtsim.Run call, or each experiment of a sweep.
	peakKiB []int64
}

// resultTotals sums simulator statistics over the Results a pass was
// served (simulated, or read back from the store).
type resultTotals struct {
	issued, cycles, slotStallMem, slotIdle int64
	swapsOut, swapStall                    int64
	l1Accesses, l1Hits, l2Accesses, dram   int64
}

func (t *resultTotals) add(r *gpu.Result) {
	t.merge(resultTotals{
		issued: r.SM.Issued, cycles: r.Cycles,
		slotStallMem: r.SM.SlotStallMem, slotIdle: r.SM.SlotIdle,
		swapsOut: r.VT.SwapsOut, swapStall: r.VT.SwapStallCycles,
		l1Accesses: r.Mem.L1Accesses, l1Hits: r.Mem.L1Hits,
		l2Accesses: r.Mem.L2Accesses, dram: r.Mem.DRAMReads,
	})
}

func (t *resultTotals) merge(u resultTotals) {
	t.issued += u.issued
	t.cycles += u.cycles
	t.slotStallMem += u.slotStallMem
	t.slotIdle += u.slotIdle
	t.swapsOut += u.swapsOut
	t.swapStall += u.swapStall
	t.l1Accesses += u.l1Accesses
	t.l1Hits += u.l1Hits
	t.l2Accesses += u.l2Accesses
	t.dram += u.dram
}

// kernelDigest is the golden fingerprint of one single-run simulation.
type kernelDigest struct {
	Cycles     int64 `json:"cycles"`
	Issued     int64 `json:"sm_issued"`
	SwapsOut   int64 `json:"core_swaps_out"`
	L1Accesses int64 `json:"l1_accesses"`
	L1Hits     int64 `json:"l1_hits"`
	L2Accesses int64 `json:"l2_accesses"`
	L2Hits     int64 `json:"l2_hits"`
	DRAMReads  int64 `json:"dram_reads"`
	DRAMWrites int64 `json:"dram_writes"`
}

func digestOf(r *gpu.Result) kernelDigest {
	return kernelDigest{
		Cycles: r.Cycles, Issued: r.SM.Issued, SwapsOut: r.VT.SwapsOut,
		L1Accesses: r.Mem.L1Accesses, L1Hits: r.Mem.L1Hits,
		L2Accesses: r.Mem.L2Accesses, L2Hits: r.Mem.L2Hits,
		DRAMReads: r.Mem.DRAMReads, DRAMWrites: r.Mem.DRAMWrites,
	}
}

func kernelKey(kernel string, pol config.Policy) string { return kernel + "/" + pol.String() }

// singleRun drives vtsim.Run with default options over a kernel set,
// one kernel at a time.
type singleRun struct {
	kernels []string
	cfg     vtsim.Config
	golden  map[string]kernelDigest // nil while recording
	ws      []vtsim.Workload
}

func newSingleRun(kernels []string, pol config.Policy, golden map[string]kernelDigest) *singleRun {
	return &singleRun{kernels: kernels, cfg: vtsim.GTX480().WithPolicy(pol), golden: golden}
}

func (s *singleRun) setup(string) error {
	ws := make([]vtsim.Workload, len(s.kernels))
	for i, n := range s.kernels {
		w, err := vtsim.BuildWorkload(n, 1)
		if err != nil {
			return fmt.Errorf("build %s: %w", n, err)
		}
		ws[i] = w
	}
	s.ws = ws
	return nil
}

func (s *singleRun) pass(rng *rand.Rand, _ *sweepobs.Tracer) (passStats, error) {
	var st passStats
	got := map[string]kernelDigest{}
	for _, i := range rng.Perm(len(s.ws)) {
		// Each call starts from a collected heap, so its peak resident
		// set does not depend on when the collector last ran relative
		// to the previous call's garbage. The pass time is the sum of
		// the calls.
		quiesce()
		if err := resetPeakRSS(); err != nil {
			return st, err
		}
		start := time.Now()
		res, err := vtsim.Run(s.ws[i], s.cfg)
		st.wall += time.Since(start)
		peak, perr := peakRSS()
		if perr != nil {
			return st, perr
		}
		st.peakKiB = append(st.peakKiB, peak)
		st.ops++
		st.requests++
		if err != nil {
			st.failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.kernels[i], err)
			continue
		}
		st.res.add(res)
		got[kernelKey(s.kernels[i], s.cfg.Policy)] = digestOf(res)
	}
	if s.golden != nil {
		for k, d := range got {
			if want, ok := s.golden[k]; !ok || want != d {
				st.failed++
				fmt.Fprintf(os.Stderr, "%s: digest %+v, golden %+v\n", k, d, want)
			}
		}
	}
	return st, nil
}

// digests runs every kernel once, in set order, and returns their
// golden digests.
func (s *singleRun) digests() (map[string]kernelDigest, error) {
	out := map[string]kernelDigest{}
	for i, w := range s.ws {
		res, err := vtsim.Run(w, s.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.kernels[i], err)
		}
		out[kernelKey(s.kernels[i], s.cfg.Policy)] = digestOf(res)
	}
	return out, nil
}

func (s *singleRun) engineWorkers() int { return autoEngineWorkers(s.cfg.NumSMs) }

// autoEngineWorkers mirrors gpu's resolution of Options.Parallelism 0,
// the default vtsim.Run uses: one worker per core, capped at the SM
// count.
func autoEngineWorkers(numSMs int) int {
	w := runtime.GOMAXPROCS(0)
	if w > numSMs {
		w = numSMs
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (s *singleRun) harnessWorkers() int { return 0 }
func (s *singleRun) dilute() int         { return 1 }

// sweep drives harness.RunOne over the experiment set at one dilution
// with prefix forking on. A cold sweep runs without a result store, the
// way vtbench regenerates the figures by default, so every pass plans,
// forks and simulates from nothing. A warm sweep reads the store its
// set-up filled. Neither is a workload: both run only in the traced
// run's sweep probe (probeSweep), off the timed path. A cold pass keeps
// both cores busy, so its time follows the host's CPU steal, and a
// filling sweep's fsync latency on a virtual disk drifts from run to
// run; neither stays within an end-to-end bound.
type sweep struct {
	warm    bool
	dil     int
	golden  map[string]string // experiment ID -> table digest; nil while recording
	exps    []harness.Experiment
	scratch string
	exec    *timedExecutor
	// store is the store a warm set-up filled, and fill what that
	// filling sweep did, traced.
	store string
	fill  passStats
}

// newSweep returns a cold sweep over every experiment.
func newSweep(dil int, golden map[string]string) *sweep {
	return &sweep{dil: dil, golden: golden, exps: harness.Experiments(), exec: &timedExecutor{}}
}

func (s *sweep) params(dir string, tr *sweepobs.Tracer) harness.Params {
	p := harness.DefaultParams()
	p.Dilute = s.dil
	p.Workers = s.harnessWorkers()
	p.CacheDir = dir
	p.Checkpoint = true
	p.Executor = s.exec
	p.Trace = tr
	return p
}

// setup builds the kernel suite for a cold sweep, whose jobs build
// their kernels again themselves. For a warm sweep it creates a result
// store and fills it with one traced cold sweep of its experiments, in
// paper order.
func (s *sweep) setup(scratch string) error {
	s.scratch = scratch
	if !s.warm {
		for _, n := range vtsim.WorkloadNames() {
			if _, err := vtsim.BuildWorkload(n, 1); err != nil {
				return fmt.Errorf("build %s: %w", n, err)
			}
		}
		return nil
	}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return err
	}
	st, err := resultstore.Open(resultstore.Options{Dir: dir})
	if err != nil {
		return fmt.Errorf("create result store: %w", err)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close result store: %w", err)
	}
	harness.ResetMetrics()
	defer harness.ResetMetrics()
	tr := sweepobs.New()
	// A table that fails here fails again in every warm pass, served from
	// the store or re-simulated, and is counted there.
	var failed int
	for _, e := range s.exps {
		if err := s.runExperiment(e, s.params(dir, tr), &failed); err != nil {
			return err
		}
	}
	s.fill = passStats{stages: tr.StageTotals()}
	if s.fill.bytes, err = dirBytes(dir); err != nil {
		return err
	}
	s.store = dir // earlier fills stay on disk until the run ends
	return nil
}

// runExperiment runs one experiment and checks its table digest,
// counting a failure into *failed. Only a missing golden entry for a
// known experiment is a hard error.
func (s *sweep) runExperiment(e harness.Experiment, p harness.Params, failed *int) error {
	var buf bytes.Buffer
	err := harness.RunOne(e, p, &buf)
	if err != nil {
		*failed++
		fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
		return nil
	}
	if s.golden == nil {
		return nil
	}
	want, ok := s.golden[e.ID]
	if !ok {
		return fmt.Errorf("no golden digest for experiment %s", e.ID)
	}
	if got := tableDigest(buf.Bytes()); got != want {
		*failed++
		fmt.Fprintf(os.Stderr, "%s: table digest %s, golden %s\n", e.ID, got, want)
	}
	return nil
}

func (s *sweep) pass(rng *rand.Rand, tr *sweepobs.Tracer) (passStats, error) {
	var st passStats
	harness.ResetMetrics()
	s.exec.reset()
	p := s.params(s.store, tr)
	for _, i := range rng.Perm(len(s.exps)) {
		// Each experiment starts from a collected heap, so neither its
		// time nor its peak resident set depends on the garbage the
		// experiments before it left. The pass time is the sum of the
		// experiments, so this and reading each one's peak RSS stay out
		// of it.
		quiesce()
		if err := resetPeakRSS(); err != nil {
			return st, err
		}
		start := time.Now()
		err := s.runExperiment(s.exps[i], p, &st.failed)
		st.wall += time.Since(start)
		if err != nil {
			return st, err
		}
		peak, err := peakRSS()
		if err != nil {
			return st, err
		}
		st.peakKiB = append(st.peakKiB, peak)
		st.ops++
	}
	st.run = harness.Metrics()
	harness.ResetMetrics() // closes the store, if any
	st.requests = st.run.Requests
	st.res, st.jobs = s.exec.snapshot()
	st.stages = tr.StageTotals()
	if s.warm && st.run.Executed != 0 {
		st.failed++
		fmt.Fprintf(os.Stderr, "warm pass executed %d simulations; every result should come from the store\n", st.run.Executed)
	}
	return st, nil
}

// digests runs every experiment of the sweep once, in paper order, into
// a fresh store and returns the table digests.
func (s *sweep) digests() (map[string]string, error) {
	dir, err := os.MkdirTemp(s.scratch, "record-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	harness.ResetMetrics()
	defer harness.ResetMetrics()
	out := map[string]string{}
	for _, e := range s.exps {
		var buf bytes.Buffer
		if err := harness.RunOne(e, s.params(dir, nil), &buf); err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		out[e.ID] = tableDigest(buf.Bytes())
	}
	return out, nil
}

// sweepProbe is what a traced run measures of the harness and the
// result store, which the workloads' own passes leave out: traced cold
// sweeps of every experiment, and a store probe.
type sweepProbe struct {
	cold   *sweep
	passes []passStats
	fold   *Folded // CPU profile of the cold passes
	store  *storeProbe
}

// probeSweep runs traced cold sweeps for d, and at least minPasses of
// them, then probeStore for d/2. Every table is checked against the
// golden digests.
func probeSweep(g *golden, scratch string, rng *rand.Rand, d time.Duration) (*sweepProbe, error) {
	cold := newSweep(g.SweepDilute, g.Tables)
	if err := cold.setup(scratch); err != nil {
		return nil, fmt.Errorf("sweep probe: %w", err)
	}
	passes, fold, err := measure(cold, rng, d, minPasses, true)
	if err == nil {
		err = fold.Conserved()
	}
	if err != nil {
		return nil, fmt.Errorf("sweep probe: %w", err)
	}
	sp, err := probeStore(cold, rng, d/2)
	if err != nil {
		return nil, err
	}
	return &sweepProbe{cold: cold, passes: passes, fold: fold, store: sp}, nil
}

// storeProbe is what the sweep probe measures of the result store: one
// traced cold sweep of the memoized experiments into a fresh store (the
// write side) and traced passes that re-read every result from it (the
// read side).
type storeProbe struct {
	fill  passStats
	reads []passStats
	fold  *Folded // CPU profile of the re-read passes
}

// probeStore fills a store with cold's memoized experiments and
// re-reads it for d, and at least minPasses times. Every re-read table is
// checked against cold's golden digests, and a re-read pass that
// simulates anything fails.
func probeStore(cold *sweep, rng *rand.Rand, d time.Duration) (*storeProbe, error) {
	warm := &sweep{warm: true, dil: cold.dil, golden: cold.golden, exec: &timedExecutor{}}
	for _, e := range cold.exps {
		if e.ID != multiKernelID {
			warm.exps = append(warm.exps, e)
		}
	}
	quiesce()
	if err := warm.setup(cold.scratch); err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	reads, fold, err := measure(warm, rng, d, minPasses, true)
	if err == nil {
		err = fold.Conserved()
	}
	if err != nil {
		return nil, fmt.Errorf("store probe: %w", err)
	}
	return &storeProbe{fill: warm.fill, reads: reads, fold: fold}, nil
}

// The harness pins every batched run to the sequential engine when it
// runs more than one job at a time (harness.Params.runParallelism).
func (s *sweep) engineWorkers() int {
	if s.harnessWorkers() > 1 {
		return 1
	}
	return autoEngineWorkers(vtsim.GTX480().NumSMs)
}

func (s *sweep) harnessWorkers() int { return harness.ResolveWorkers(runtime.NumCPU()) }
func (s *sweep) dilute() int         { return s.dil }

// tableDigest is the sha256 of an experiment's printed output without
// any wall-time line, the one line that legitimately differs run to run.
func tableDigest(out []byte) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if strings.Contains(line, "wall time") {
			continue
		}
		h.Write([]byte(line))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// timedExecutor is the harness's default in-process executor with each
// job timed and its Result's statistics summed.
type timedExecutor struct {
	mu   sync.Mutex
	res  resultTotals
	jobs []time.Duration
}

func (e *timedExecutor) Execute(p harness.Params, j harness.Job) (*gpu.Result, error) {
	start := time.Now()
	res, err := harness.ExecuteJob(p, j)
	d := time.Since(start)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs = append(e.jobs, d)
	if err == nil && res != nil {
		e.res.add(res)
	}
	return res, err
}

func (e *timedExecutor) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.res = resultTotals{}
	e.jobs = nil
}

func (e *timedExecutor) snapshot() (resultTotals, []time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.res, e.jobs
}

// resetPeakRSS lowers the kernel's high-water mark of this process's
// resident set to its current size (Linux 4.0+), so the next peakRSS
// reads the peak of one operation alone.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's peak resident set size (VmHWM) in KiB.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kib, nil
		}
	}
	return 0, errors.New("read peak RSS: no VmHWM in /proc/self/status")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
