package main

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/harness"
)

func TestModuleOf(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"repro/internal/warp.(*Warp).Execute", "warp"},
		{"repro/internal/sm.(*SM).issueOne", "sm"},
		{"repro/internal/sm.(*SM).issueOne.func1", "sm"},
		{"repro/internal/sm.(*SM).issueOne.func2.1", "sm"},
		{"repro/internal/event.(*Queue).Pop-fm", "event"},
		{"repro/internal/gpu.Run.gowrap1", "gpu"},
		{"repro/internal/core.pick[go.shape.int]", "core"},
		{"repro/internal/mem.(*Cache[go.shape.struct { repro/internal/event.T int }]).Get", "mem"},
		{"repro/internal/harness.mapOf[go.shape.*repro/internal/gpu.Result]", "harness"},
		{"type:.eq.repro/internal/mem.line", "mem"},
		{"type:.eq.[4]repro/internal/simt.entry", "simt"},
		{"type:.hash.*repro/internal/cta.CTA", "cta"},
		{"runtime.mallocgc", "runtime"},
		{"runtime/internal/syscall.Syscall6", "runtime"},
		{"internal/runtime/atomic.(*Uint32).Load", "runtime"},
		{"encoding/json.(*decodeState).object", "stdlib"},
		{"crypto/sha256.block", "stdlib"},
		{"sync.(*Mutex).Lock", "stdlib"},
		{"main.main", "other"},
		{"repro.Run", "other"},
		{"repro/perfbench.spin", "other"},
		{"golang.org/x/sys/unix.Syscall", "other"},
		{"", "other"},
	} {
		if got := moduleOf(c.sym); got != c.want {
			t.Errorf("moduleOf(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

var sink uint64

//go:noinline
func spin(d time.Duration) {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
}

func TestFoldProfileConserves(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	f, err := FoldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.TotalNS <= 0 {
		t.Fatalf("profile total %d ns, want > 0", f.TotalNS)
	}
	if err := f.Conserved(); err != nil {
		t.Fatal(err)
	}
	// spin lives in this package, which folds into "other".
	if f.SelfNS["other"]*2 < f.TotalNS {
		t.Errorf("other holds %d of %d ns; the spin loop should dominate", f.SelfNS["other"], f.TotalNS)
	}
	f.SelfNS["warp"]++
	if f.Conserved() == nil {
		t.Error("Conserved accepted module times that do not sum to the total")
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, err := FoldProfile([]byte("not a profile")); err == nil {
		t.Error("FoldProfile accepted a non-gzip input")
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- { // unsorted input
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct {
		q      float64
		want   time.Duration
		beyond int
	}{
		{50, 50 * time.Millisecond, 50},
		{99, 99 * time.Millisecond, 1},
		{100, 100 * time.Millisecond, 0},
		{0.1, 1 * time.Millisecond, 99},
	} {
		p := percentile(ds, c.q)
		if p.Value != c.want || p.Samples != 100 || p.Beyond != c.beyond {
			t.Errorf("percentile(q=%v) = %+v, want value %v, 100 samples, %d beyond", c.q, p, c.want, c.beyond)
		}
	}
	if ds[0] != 100*time.Millisecond {
		t.Error("percentile reordered its input")
	}
	if p := percentile(nil, 99); p != (Percentile{}) {
		t.Errorf("percentile of no samples = %+v, want zero", p)
	}
	// Ties: everything at or below the value counts as not beyond it.
	p := percentile([]time.Duration{1, 2, 2, 2, 3}, 50)
	if p.Value != 2 || p.Beyond != 1 {
		t.Errorf("percentile with ties = %+v, want value 2, 1 beyond", p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("median empty = %v", m)
	}
}

// The single-run digests of a small instance must not depend on the
// seed that orders the kernels within a pass.
func TestSingleRunDigestsSeedInvariant(t *testing.T) {
	s := newSingleRun([]string{"bfs", "pathfinder", "nw", "vecadd"}, config.PolicyVT, nil)
	s.cfg = config.Small().WithPolicy(config.PolicyVT)
	if err := s.setup(""); err != nil {
		t.Fatal(err)
	}
	g, err := s.digests()
	if err != nil {
		t.Fatal(err)
	}
	s.golden = g
	for _, seed := range []uint64{1, 2} {
		st, err := s.pass(rand.New(rand.NewPCG(seed, 0)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.ops != 4 || st.failed != 0 {
			t.Errorf("seed %d: %d of %d simulations failed their digest", seed, st.failed, st.ops)
		}
	}
	// A wrong golden entry must count as a failed operation.
	bad := g["bfs/vt"]
	bad.Cycles++
	s.golden["bfs/vt"] = bad
	st, err := s.pass(rand.New(rand.NewPCG(3, 0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 1 {
		t.Errorf("a mismatched digest counted %d failures, want 1", st.failed)
	}
}

// The sweep table digests at a high dilution must not depend on the
// experiment order a seed picks, and the store probe's re-read passes
// must print exactly what the cold pass printed, without simulating.
func TestSweepDigestsSeedInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three small sweeps")
	}
	keep := map[string]bool{"table1-config": true, "fig-speedup": true, "fig-swaplat": true, "fig-virtcap": true}
	subset := func(s *sweep) *sweep {
		var exps []harness.Experiment
		for _, e := range s.exps {
			if keep[e.ID] {
				exps = append(exps, e)
			}
		}
		s.exps = exps
		return s
	}
	scratch := t.TempDir()
	cold := subset(newSweep(200, nil))
	if err := cold.setup(scratch); err != nil {
		t.Fatal(err)
	}
	g, err := cold.digests()
	if err != nil {
		t.Fatal(err)
	}
	cold.golden = g
	for _, seed := range []uint64{1, 2} {
		st, err := cold.pass(rand.New(rand.NewPCG(seed, 0)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.ops != len(keep) || st.failed != 0 {
			t.Errorf("cold seed %d: %d of %d tables failed their digest", seed, st.failed, st.ops)
		}
		if st.run.Executed == 0 || st.run.CheckpointHits == 0 {
			t.Errorf("cold seed %d: executed %d, checkpoint hits %d; want both > 0", seed, st.run.Executed, st.run.CheckpointHits)
		}
	}
	for _, seed := range []uint64{1, 2} {
		probe, err := probeStore(cold, rand.New(rand.NewPCG(seed, 0)), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(probe.reads) != minPasses || probe.fill.bytes == 0 {
			t.Errorf("probe seed %d: %d re-read passes, %d store bytes", seed, len(probe.reads), probe.fill.bytes)
		}
		for _, st := range probe.reads {
			if st.ops != len(keep) || st.failed != 0 || st.run.Executed != 0 || st.run.StoreHits == 0 {
				t.Errorf("probe seed %d: %d tables, failed %d, executed %d, store hits %d", seed, st.ops, st.failed, st.run.Executed, st.run.StoreHits)
			}
		}
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd([]passStats{{wall: time.Second, requests: 1, peakKiB: []int64{1024}}}, []float64{1})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the benchmark prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): benchmark prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(ledger) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the ledger has %d", len(spec.PerLayer), len(ledger))
	}
	for i, m := range spec.PerLayer {
		l := ledger[i]
		if m.Name != l.name || m.Unit != l.unit || m.Better != l.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, ledger %s %s %s", i, m, l.name, l.unit, l.better)
		}
	}
}

// The embedded golden digests must cover every kernel and experiment
// the workloads run.
func TestGoldenCoversWorkloads(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range vtTarget {
		if _, ok := g.Kernels[kernelKey(k, config.PolicyVT)]; !ok {
			t.Errorf("no golden digest for %s under VT", k)
		}
	}
	for _, k := range baselineControl {
		if _, ok := g.Kernels[kernelKey(k, config.PolicyBaseline)]; !ok {
			t.Errorf("no golden digest for %s under baseline", k)
		}
	}
	for _, e := range harness.Experiments() {
		if _, ok := g.Tables[e.ID]; !ok {
			t.Errorf("no golden table digest for %s", e.ID)
		}
	}
}
