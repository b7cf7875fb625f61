// Command perfbench is the repository's host-time benchmark. It drives
// one workload through the public entry points (vtsim.Run,
// harness.RunOne), checks every output against golden digests, and
// prints one JSON result line. With -trace 0 it reports the end-to-end
// metrics; with -trace 1 it runs an untraced and a traced phase and
// reports the per-layer ledger: CPU self time per module from an
// in-process CPU profile, sweep stage times from the harness tracer,
// and exact work counts from the Results.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload vt-target --seed 1 --seconds 55 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/sweepobs"
)

//go:embed golden.json
var goldenJSON []byte

// golden holds the expected outputs: per (kernel, policy) simulation
// counters for the single-run workloads and per-experiment table
// digests for the sweeps.
type golden struct {
	SweepDilute int                     `json:"sweep_dilute"`
	Kernels     map[string]kernelDigest `json:"kernels"`
	Tables      map[string]string       `json:"tables"`
}

// minPasses is the fewest measured passes a phase runs, however long
// they take, so a median always has company.
const minPasses = 3

var workloadNames = []string{"vt-target", "baseline-control"}

func newWorkload(name string, g *golden) (workload, error) {
	switch name {
	case "vt-target":
		return newSingleRun(vtTarget, config.PolicyVT, g.Kernels), nil
	case "baseline-control":
		return newSingleRun(baselineControl, config.PolicyBaseline, g.Kernels), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// setupReps is how many times a run repeats set-up; setup_s is the
// median.
const setupReps = 51

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
		seed    = flag.Uint64("seed", 1, "seed permuting the order of kernels or experiments within each pass")
		seconds = flag.Float64("seconds", 10, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		scratch = flag.String("scratch", ".bench_build/perfbench", "directory for result stores and other run files")
		record  = flag.String("record", "", "write golden digests of this tree to the file and exit")
	)
	flag.Parse()
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fatal(err)
	}
	if *record != "" {
		err = recordGolden(*record, dir)
	} else {
		err = run(*name, *seed, *seconds, *trace, dir)
	}
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	// Wait for the removal to reach the disk, so the file system's block
	// freeing lands in this run rather than in the next one's set-up.
	syscall.Sync()
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func loadGolden() (*golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.SweepDilute != sweepDilute || len(g.Kernels) == 0 || len(g.Tables) == 0 {
		return nil, errors.New("golden.json is missing or was recorded for another sweep dilution; re-record with -record")
	}
	return &g, nil
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(name string, seed uint64, seconds float64, trace int, scratch string) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", seconds)
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	w, err := newWorkload(name, g)
	if err != nil {
		return err
	}
	stamp, _ := json.Marshal(map[string]any{
		"workload": name, "seed": seed, "nproc": runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"engine_workers": w.engineWorkers(), "harness_workers": w.harnessWorkers(),
		"dilute": w.dilute(),
	})
	fmt.Printf("env %s\n", stamp)

	res := result{Metrics: map[string]metric{}}
	tally := func(ps []passStats) {
		for _, p := range ps {
			res.Attempted += p.ops
			res.Failed += p.failed
		}
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		quiesce()
		start := time.Now()
		if err := w.setup(scratch); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	// One unmeasured pass lets first-use initialisation finish.
	warmup, _, err := measure(w, rng, 0, 1, false)
	if err != nil {
		return err
	}
	tally(warmup)

	phase := time.Duration(seconds * float64(time.Second))
	if trace == 0 {
		passes, _, err := measure(w, rng, phase, minPasses, false)
		if err != nil {
			return err
		}
		tally(passes)
		res.Metrics = endToEnd(passes, setups)
	} else {
		untraced, _, err := measure(w, rng, phase/2, minPasses, false)
		if err != nil {
			return err
		}
		traced, fold, err := measure(w, rng, phase/2, minPasses, true)
		if err != nil {
			return err
		}
		tally(untraced)
		tally(traced)
		if err := fold.Conserved(); err != nil {
			return err
		}
		probe, err := probeSweep(g, scratch, rng, phase/4)
		if err != nil {
			return err
		}
		tally(probe.passes)
		tally(probe.store.reads)
		vals := layerValues(w, untraced, traced, fold, probe)
		for _, m := range ledger {
			v, ok := vals[m.name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not computed", m.name)
			}
			res.Metrics[m.name] = metric{v, m.unit}
			fmt.Printf("%-28s %16.6g %-7s moves %s on %s\n", m.name, v, m.unit, m.moves, m.on)
		}
		printShares(fold)
	}
	res.Correct = res.Failed == 0
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd computes the end-to-end metrics: per-pass medians of the
// measured passes, the median set-up time, and the median over every
// operation of the measured passes of the peak RSS it reached.
func endToEnd(passes []passStats, setups []float64) map[string]metric {
	var walls, instrs, jobs, rss []float64
	for _, p := range passes {
		s := p.wall.Seconds()
		walls = append(walls, s)
		instrs = append(instrs, float64(p.res.issued)/s)
		jobs = append(jobs, float64(p.requests)/s)
		for _, kib := range p.peakKiB {
			rss = append(rss, float64(kib)/1024)
		}
	}
	spread("wall_s per pass", walls)
	spread("setup_s per repetition", setups)
	spread("peak RSS MB per operation", rss)
	return map[string]metric{
		"wall_s":           {median(walls), "s"},
		"sim_instrs_per_s": {median(instrs), "1/s"},
		"jobs_per_s":       {median(jobs), "1/s"},
		"setup_s":          {median(setups), "s"},
		"max_rss_mb":       {median(rss), "MB"},
	}
}

// spread prints the count, minimum, median and maximum of xs.
func spread(label string, xs []float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	fmt.Printf("%s: n %d, min %.6g, median %.6g, max %.6g\n", label, len(s), s[0], median(s), s[len(s)-1])
}

// measure runs at least min passes, and more while the next one, as
// long as the median one so far, still ends within d; a run therefore
// takes no longer than d unless min passes do. Traced passes each get a
// fresh sweep tracer and run under a CPU profile of their own; the
// profiles are folded by module and summed, so the forced collection
// between passes stays out of them.
func measure(w workload, rng *rand.Rand, d time.Duration, min int, traced bool) ([]passStats, *Folded, error) {
	var passes []passStats
	var rounds []float64 // seconds per pass, quiescing included
	fold := &Folded{SelfNS: map[string]int64{}}
	deadline := time.Now().Add(d)
	for len(passes) < min || time.Now().Add(time.Duration(median(rounds)*float64(time.Second))).Before(deadline) {
		start := time.Now()
		quiesce()
		var tr *sweepobs.Tracer
		var prof bytes.Buffer
		if traced {
			tr = sweepobs.New()
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, nil, fmt.Errorf("start CPU profile: %w", err)
			}
		}
		p, err := w.pass(rng, tr)
		if traced {
			pprof.StopCPUProfile()
			if err == nil {
				var f *Folded
				if f, err = FoldProfile(prof.Bytes()); err == nil {
					fold.Add(f)
				}
			}
		}
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, p)
		rounds = append(rounds, time.Since(start).Seconds())
	}
	return passes, fold, nil
}

// quiesce runs before every timed step (a set-up or a pass). It
// collects the heap and returns free memory to the OS, and flushes
// pending file writes, so a step inherits neither the garbage and
// resident set nor the write-back of the steps before it, in this
// process or an earlier one.
func quiesce() {
	debug.FreeOSMemory()
	syscall.Sync()
}

// stageSums adds up the sweep stage totals of passes.
func stageSums(passes []passStats) map[string]sweepobs.StageTotal {
	stages := map[string]sweepobs.StageTotal{}
	for _, p := range passes {
		for k, v := range p.stages {
			t := stages[k]
			t.Count += v.Count
			t.Seconds += v.Seconds
			stages[k] = t
		}
	}
	return stages
}

// layerValues computes every ledger metric: the simulator's from the
// workload's traced passes, per pass, with trace.overhead_s comparing
// them with the untraced passes; the harness's per cold pass of the
// sweep probe, and the result store's from its store probe.
func layerValues(w workload, untraced, traced []passStats, fold *Folded, probe *sweepProbe) map[string]float64 {
	n := float64(len(traced))
	var res resultTotals
	var walls []float64
	for _, p := range traced {
		res.merge(p.res)
		walls = append(walls, p.wall.Seconds())
	}
	nCold := float64(len(probe.passes))
	var run struct{ requests, executed, hits, ckHits, ckMisses, saved float64 }
	var jobs []time.Duration
	for _, p := range probe.passes {
		m := p.run
		run.requests += float64(m.Requests) / nCold
		run.executed += float64(m.Executed) / nCold
		run.hits += float64(m.CacheHits) / nCold
		run.ckHits += float64(m.CheckpointHits)
		run.ckMisses += float64(m.CheckpointMisses)
		run.saved += float64(m.PrefixCyclesSaved) / nCold
		jobs = append(jobs, p.jobs...)
	}
	stages := stageSums(probe.passes)
	// The store counts are per re-read pass of the store probe.
	sp := probe.store
	fill := sp.fill
	reads := stageSums(sp.reads)
	nReads := float64(len(sp.reads))
	var store struct{ hits, misses, retries float64 }
	for _, p := range sp.reads {
		store.hits += float64(p.run.StoreHits) / nReads
		store.misses += float64(p.run.StoreMisses) / nReads
		store.retries += float64(p.run.StoreRetries) / nReads
	}
	var untracedWalls []float64
	for _, p := range untraced {
		untracedWalls = append(untracedWalls, p.wall.Seconds())
	}
	v := map[string]float64{}
	perPass := func(x float64) float64 { return x / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	named := int64(0)
	for _, m := range selfModules {
		ns := fold.SelfNS[m]
		named += ns
		v[m+".self_s"] = perPass(float64(ns) / 1e9)
	}
	v["other.self_s"] = perPass(float64(fold.TotalNS-named) / 1e9)
	// The workload's own passes touch neither the harness nor the store.
	v["harness.self_s"] = float64(probe.fold.SelfNS["harness"]) / 1e9 / nCold
	v["resultstore.self_s"] = float64(sp.fold.SelfNS["resultstore"]) / 1e9 / nReads
	v["profile.total_s"] = perPass(float64(fold.TotalNS) / 1e9)
	v["warp.ns_per_instr"] = ratio(float64(fold.SelfNS["warp"]), float64(res.issued))
	v["sm.ns_per_instr"] = ratio(float64(fold.SelfNS["sm"]), float64(res.issued))
	v["core.us_per_swap"] = ratio(float64(fold.SelfNS["core"])/1e3, float64(res.swapsOut))
	v["core.swaps_out"] = perPass(float64(res.swapsOut))
	v["core.swap_stall_cycles"] = perPass(float64(res.swapStall))
	v["mem.ns_per_l1_access"] = ratio(float64(fold.SelfNS["mem"]), float64(res.l1Accesses))
	v["mem.l1_accesses"] = perPass(float64(res.l1Accesses))
	v["mem.l1_hits"] = perPass(float64(res.l1Hits))
	v["mem.l2_accesses"] = perPass(float64(res.l2Accesses))
	v["mem.dram_reads"] = perPass(float64(res.dram))
	v["gpu.engine_workers"] = float64(w.engineWorkers())
	v["sm.issued"] = perPass(float64(res.issued))
	v["sm.slot_stall_mem"] = perPass(float64(res.slotStallMem))
	v["sm.slot_idle"] = perPass(float64(res.slotIdle))
	v["gpu.sim_cycles"] = perPass(float64(res.cycles))
	stage := func(stages map[string]sweepobs.StageTotal, kinds ...string) (secs, count float64) {
		for _, k := range kinds {
			secs += stages[k].Seconds
			count += float64(stages[k].Count)
		}
		return secs, count
	}
	planS, _ := stage(stages, "plan")
	execS, _ := stage(stages, "execute")
	getS, getN := stage(reads, "store.get")
	forkS, _ := stage(fill.stages, "fork.ckload", "fork.ckstore")
	txS, txN := stage(fill.stages, "store.tx")
	v["harness.plan_s"] = planS / nCold
	v["harness.fork_s"] = forkS
	v["harness.execute_s"] = execS / nCold
	v["harness.fork_hit_ratio"] = ratio(run.ckHits, run.ckHits+run.ckMisses)
	v["harness.prefix_cycles_saved"] = run.saved
	v["resultstore.tx_s"] = txS
	v["resultstore.ms_per_tx"] = ratio(txS*1e3, txN)
	v["resultstore.bytes"] = float64(fill.bytes)
	v["resultstore.get_s"] = getS / nReads
	v["resultstore.us_per_get"] = ratio(getS*1e6, getN)
	v["resultstore.hit_ratio"] = ratio(store.hits, store.hits+store.misses)
	p50, p99 := percentile(jobs, 50), percentile(jobs, 99)
	v["harness.job_ms_p50"] = float64(p50.Value) / 1e6
	v["harness.job_ms_p99"] = float64(p99.Value) / 1e6
	v["harness.job_samples"] = float64(p99.Samples)
	v["harness.requests"] = run.requests
	v["harness.executed"] = run.executed
	v["harness.cache_hits"] = run.hits
	v["resultstore.hits"] = store.hits
	v["resultstore.misses"] = store.misses
	v["resultstore.retries"] = store.retries
	v["harness.workers"] = float64(probe.cold.harnessWorkers())
	v["harness.dilute"] = float64(probe.cold.dilute())
	v["env.nproc"] = float64(runtime.NumCPU())
	v["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	v["trace.overhead_s"] = median(walls) - median(untracedWalls)
	if len(jobs) > 0 {
		fmt.Printf("job latency: p50 %v, p99 %v over %d samples (%d beyond p99)\n", p50.Value, p99.Value, p99.Samples, p99.Beyond)
	}
	return v
}

// printShares prints each profile bucket's share of the CPU profile,
// then each simulator module's share of the repro/internal time alone
// (without the runtime, the rest of the standard library and other).
func printShares(f *Folded) {
	type share struct {
		module string
		ns     int64
	}
	var all, sim []share
	var simNS int64
	for m, ns := range f.SelfNS {
		all = append(all, share{m, ns})
		if m != "runtime" && m != "stdlib" && m != "other" {
			sim = append(sim, share{m, ns})
			simNS += ns
		}
	}
	line := func(label string, s []share, total int64) {
		sort.Slice(s, func(i, j int) bool { return s[i].ns > s[j].ns })
		fmt.Printf("%s:", label)
		for _, x := range s {
			fmt.Printf(" %s %.1f%%", x.module, 100*float64(x.ns)/float64(total))
		}
		fmt.Println()
	}
	line(fmt.Sprintf("profile %.3f s CPU, share by module", float64(f.TotalNS)/1e9), all, f.TotalNS)
	if simNS > 0 {
		line("share of repro/internal time", sim, simNS)
	}
}

// recordGolden writes the golden digests of the current tree: one
// simulation per (kernel, policy) of the single-run workloads, and one
// cold sweep's table digests.
func recordGolden(path, scratch string) error {
	g := golden{SweepDilute: sweepDilute, Kernels: map[string]kernelDigest{}}
	for _, s := range []*singleRun{
		newSingleRun(vtTarget, config.PolicyVT, nil),
		newSingleRun(baselineControl, config.PolicyBaseline, nil),
	} {
		if err := s.setup(scratch); err != nil {
			return err
		}
		d, err := s.digests()
		if err != nil {
			return err
		}
		for k, v := range d {
			g.Kernels[k] = v
		}
	}
	sw := newSweep(sweepDilute, nil)
	if err := sw.setup(scratch); err != nil {
		return err
	}
	tables, err := sw.digests()
	if err != nil {
		return err
	}
	g.Tables = tables
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
