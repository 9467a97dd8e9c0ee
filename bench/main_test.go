package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridrealloc/internal/platform"
	"gridrealloc/internal/workload"
)

// TestMain lets the test binary stand in for the benchmark binary, so the
// -runs mode can re-execute it.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now))
	}
	os.Exit(m.Run())
}

func runBench(t *testing.T, args ...string) (int, string, resultLine) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb, time.Now)
	res, err := lastResult(out.Bytes())
	if code == 0 && err != nil {
		t.Fatalf("%v: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	return code, out.String() + errb.String(), res
}

// TestSmokeEveryWorkload runs every workload end to end at a tiny size,
// untraced and traced.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, out, res := runBench(t, "-workload", w.name, "-smoke", "-seconds", "0.3", "-seed", "7")
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			dir := t.TempDir()
			code, out, res = runBench(t, "-workload", w.name, "-smoke", "-seconds", "0.3", "-seed", "7", "-trace", dir)
			if code != 0 || !res.Correct {
				t.Fatalf("traced: exit %d, result %+v\n%s", code, res, out)
			}
			sum := 0.0
			for _, l := range layers {
				sum += res.Metrics[l+".cpu_frac"].Value
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("self CPU fractions sum to %g", sum)
			}
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced run lacks %s", d.name)
				}
			}
			for _, f := range []string{".spans.jsonl", ".cpu.pprof"} {
				if st, err := os.Stat(filepath.Join(dir, w.name+f)); err != nil || st.Size() == 0 {
					t.Errorf("trace file %s: %v", f, err)
				}
			}
		})
	}
}

func TestTracedLayersPerWorkload(t *testing.T) {
	dir := t.TempDir()
	_, out, res := runBench(t, "-workload", "frontal", "-smoke", "-seconds", "0.2", "-trace", dir)
	for _, name := range []string{"service.handler_p50_ms", "service.client_p50_ms", "batch.submits", "loadgen.late_p99_ms"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("frontal %s = %g, want > 0\n%s", name, res.Metrics[name].Value, out)
		}
	}
	_, out, res = runBench(t, "-workload", "campaign-http", "-smoke", "-seconds", "0.2", "-trace", dir)
	for _, name := range []string{"service.first_line_p50_ms", "service.lease_acquires", "core.run_p50_ms", "workload.gen_s"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("campaign-http %s = %g, want > 0\n%s", name, res.Metrics[name].Value, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "grid72", "-seconds", "0"},
		{"-workload", "grid72", "-runs", "0"},
		{"-bogus"},
	} {
		if code, _, _ := runBench(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestRepeat runs the -runs mode, which re-executes this test binary.
func TestRepeat(t *testing.T) {
	t.Setenv("BENCH_TEST_AS_MAIN", "1")
	code, out, res := runBench(t, "-workload", "alg2-full", "-smoke", "-seconds", "0.1", "-runs", "3", "-seed", "5")
	if code != 0 || !res.Correct || res.Attempted < 3 {
		t.Fatalf("exit %d, result %+v\n%s", code, res, out)
	}
	for _, want := range []string{"run 2 seed 7 correct=true", "spread", "jobs_per_s"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	t.Setenv("BENCH_TEST_AS_MAIN", "0")
	if code, _, _ := runBench(t, "-workload", "alg2-full", "-runs", "2"); code != 1 {
		t.Errorf("children that print no result: exit %d, want 1", code)
	}
}

func TestLastResult(t *testing.T) {
	if _, err := lastResult(nil); err == nil {
		t.Error("empty output accepted")
	}
	if _, err := lastResult([]byte("{\"correct\":true}\nnot json\n")); err == nil {
		t.Error("a non-JSON last line accepted")
	}
	res, err := lastResult([]byte("text\n{\"correct\":true,\"attempted\":3}\n\n"))
	if err != nil || !res.Correct || res.Attempted != 3 {
		t.Errorf("got %+v, %v", res, err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(cfg.Workloads), len(workloads))
	}
	for i, w := range cfg.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ name, unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].name != want[i].name || got[i].unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) here", kind, i, got[i].name, got[i].unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, pl []struct{ name, unit string }
	for _, m := range cfg.EndToEnd {
		e2e = append(e2e, struct{ name, unit string }{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range cfg.PerLayer {
		pl = append(pl, struct{ name, unit string }{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", pl, perLayer)
}

func TestCheckDigests(t *testing.T) {
	var out bytes.Buffer
	e := &env{seed: checkedSeed, size: fullSize, out: &out, printDigests: true}
	var all map[string]digestEntry
	if err := json.Unmarshal(expectedDigestsJSON, &all); err != nil {
		t.Fatal(err)
	}
	want := all["alg2-full"]
	if len(want.Outputs) < 3 {
		t.Fatalf("digests.json alg2-full has %d outputs", len(want.Outputs))
	}
	labels := make([]string, len(want.Outputs))
	digests := make([]string, len(want.Outputs))
	for i, p := range want.Outputs {
		labels[i] = string(rune('a' + i))
		digests[i] = p + strings.Repeat("0", 48)
	}
	po := &phaseOut{labels: labels, digests: digests}
	// The fold covers full digests and labels, so only the prefixes match.
	if p := checkDigests(e, "alg2-full", po); len(p) != 1 || !strings.Contains(p[0], "fold") {
		t.Errorf("problems %v, want a fold mismatch", p)
	}
	po.digests = append([]string(nil), digests...)
	po.digests[1] = strings.Repeat("f", 64)
	if p := checkDigests(e, "alg2-full", po); len(p) != 1 || !strings.Contains(p[0], "(b)") {
		t.Errorf("problems %v, want output b named", p)
	}
	po.digests = po.digests[:2]
	po.digests[1] = digests[1]
	if p := checkDigests(e, "alg2-full", po); len(p) != 1 || !strings.Contains(p[0], "2 outputs") {
		t.Errorf("problems %v, want a count mismatch", p)
	}
	if p := checkDigests(e, "frontal", &phaseOut{labels: []string{"x"}, digests: []string{"y"}}); len(p) != 1 {
		t.Errorf("a workload without an entry: %v", p)
	}
	e.seed = 43
	if p := checkDigests(e, "alg2-full", po); p != nil {
		t.Errorf("seed 43 is not checked, got %v", p)
	}
	if !strings.Contains(out.String(), "digests.json entry: {\"alg2-full\"") {
		t.Errorf("no entry printed:\n%s", out.String())
	}
}

func TestBuildScript(t *testing.T) {
	plat := platform.Platform{Clusters: []platform.ClusterSpec{{Name: "a", Cores: 100, Speed: 1}, {Name: "b", Cores: 10, Speed: 1}}}
	var jobs []workload.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, workload.Job{ID: i + 1, Submit: int64(i) * 600, Runtime: 100, Walltime: 200, Procs: 5 + 5*(i%3)})
	}
	jobs = append(jobs, workload.Job{ID: 13, Submit: 9000, Runtime: 1, Walltime: 1, Procs: 500})
	trace, err := workload.NewTrace("t", jobs)
	if err != nil {
		t.Fatal(err)
	}
	s := buildScript(trace, plat, 0)
	count := map[reqKind]int{}
	for i, r := range s.reqs {
		count[r.kind]++
		if r.kind == kSubmit && r.job.Procs > plat.Clusters[r.cluster].Cores {
			t.Errorf("request %d submits a %d-core job to %s", i, r.job.Procs, s.clusters[r.cluster])
		}
		if r.kind == kCancel && (r.to == r.cluster || r.job.Procs > plat.Clusters[r.to].Cores) {
			t.Errorf("request %d moves job %d from %d to %d", i, r.job.ID, r.cluster, r.to)
		}
		if i > 0 && r.now < s.reqs[i-1].now {
			t.Errorf("request %d goes back in virtual time", i)
		}
	}
	// 12 placeable jobs (job 13 fits nowhere), 2 clusters; hour boundaries
	// at 3600 and 7200 each list both clusters.
	if count[kSubmit] != 12 || count[kEstimate] != 24 || count[kList] != 4 {
		t.Errorf("request counts %v", count)
	}
	if count[kCancel] == 0 || count[kCancel] > 2*movesPerHour {
		t.Errorf("%d moves", count[kCancel])
	}
	if got := s.jobsIn(len(s.reqs)); got != 12 {
		t.Errorf("jobsIn = %d", got)
	}
	if short := buildScript(trace, plat, 3); short.jobsIn(len(short.reqs)) != 3 {
		t.Errorf("maxJobs not honoured")
	}
}

func TestJitterAndDerive(t *testing.T) {
	tr, err := workload.Scenario("jan", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := jitterTrace(tr, 9, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := jitterTrace(tr, 9, 0.001)
	c, _ := jitterTrace(tr, 10, 0.001)
	moved := 0
	for i := range tr.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Fatal("the same seed jittered differently")
		}
		d := a.Jobs[i].Runtime - tr.Jobs[i].Runtime
		if math.Abs(float64(d)) > 0.001*float64(tr.Jobs[i].Runtime)+1 {
			t.Errorf("job %d moved by %d of %d", i, d, tr.Jobs[i].Runtime)
		}
		if a.Jobs[i] != c.Jobs[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Error("two seeds gave the same jitter")
	}
	if derive(1, "x", 0) == derive(2, "x", 0) || derive(1, "x", 0) == derive(1, "y", 0) || derive(1, "x", 0) == derive(1, "x", 1) {
		t.Error("derive collides")
	}
}
