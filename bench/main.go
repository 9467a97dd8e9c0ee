// Command bench is the repository benchmark. It drives the simulator, the
// campaign runner and the gridd service through their public entry points
// on four workloads, checks the outputs against committed digests, and
// prints every end-to-end metric by name with its unit; the last line of
// standard output is one JSON object with the result.
//
//	go run . -workload grid72 -seed 42 -seconds 20
//	go run . -workload frontal -trace 1      # per-layer metrics, spans, profile
//	go run . -workload alg2-full -runs 5     # five runs, seeds 42..46, spread
//
// From the repository root, bash bench/run.sh takes the same flags and
// builds the benchmark first. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload. What
// a "job" and a "unit" of latency are depends on the workload; README.md
// has the table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"alloc_kb_per_job", "KB/job"},
}

// perLayer are the metrics a traced run reports on every workload; a layer
// a workload never reaches reads 0.
var perLayer = []metricDef{
	{"workload.cpu_frac", "ratio"},
	{"scenario.cpu_frac", "ratio"},
	{"core.cpu_frac", "ratio"},
	{"batch.cpu_frac", "ratio"},
	{"sim.cpu_frac", "ratio"},
	{"runner.cpu_frac", "ratio"},
	{"service.cpu_frac", "ratio"},
	{"http.cpu_frac", "ratio"},
	{"json.cpu_frac", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"other.cpu_frac", "ratio"},
	{"core.reallocate_frac", "ratio"},
	{"core.submit_frac", "ratio"},
	{"batch.advance_frac", "ratio"},
	{"batch.ect_frac", "ratio"},
	{"batch.snapshot_frac", "ratio"},
	{"workload.gen_s", "s"},
	{"scenario.build_s", "s"},
	{"core.run_p50_ms", "ms"},
	{"core.run_max_ms", "ms"},
	{"core.passes", "count"},
	{"core.moves", "count"},
	{"core.moves_per_pass", "count"},
	{"sim.events", "count"},
	{"batch.submits", "count"},
	{"batch.cancels", "count"},
	{"batch.ect_queries", "count"},
	{"batch.snapshot_hit_frac", "ratio"},
	{"batch.plan_rebuilds", "count"},
	{"batch.plan_reuse_frac", "ratio"},
	{"runner.idle_frac", "ratio"},
	{"runner.failed", "count"},
	{"runner.retries", "count"},
	{"runner.discarded_sims", "count"},
	{"service.handler_p50_ms", "ms"},
	{"service.handler_p99_ms", "ms"},
	{"service.client_p50_ms", "ms"},
	{"service.first_line_p50_ms", "ms"},
	{"service.overhead_frac", "ratio"},
	{"service.shed", "count"},
	{"service.handler_panics", "count"},
	{"service.lease_acquires", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.conn_wait_p99_ms", "ms"},
	{"gc.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "ratio"},
}

// env is what one workload run is given.
type env struct {
	seed   uint64
	budget time.Duration // length of one timed phase
	procs  int           // bound on workers, tenants and connections
	clock  func() time.Time
	traced bool
	out    io.Writer // human-readable progress and digests
	size   size
	// printDigests asks for the digests.json entry of the checked outputs.
	printDigests bool
}

// bench is one set-up workload, ready to measure.
type bench interface {
	// phase runs one timed phase and checks its outputs. tr is nil for the
	// untraced phase that yields the end-to-end metrics.
	phase(tr *tracer) (*phaseOut, error)
	// close stops everything setup started and waits for it.
	close()
}

// workloadDef is one named workload: setup builds its inputs (and any
// service) from env.seed.
type workloadDef struct {
	name  string
	setup func(e *env, tr *tracer) (bench, error)
}

var workloads = []workloadDef{
	{"grid72", setupGrid72},
	{"alg2-full", setupAlg2},
	{"frontal", setupFrontal},
	{"campaign-http", setupCampaign},
}

// phaseOut is what one timed phase measured.
type phaseOut struct {
	wall      time.Duration
	jobs      float64         // simulated jobs (frontal: jobs placed)
	jobsPerS  float64         // the throughput metric
	lat       []time.Duration // one per unit: scenario run, request, campaign
	tailP     float64         // percentile reported as tail_ms (1 = max)
	alloc     uint64          // bytes allocated during the phase
	attempted int64
	failed    int64
	// cost is the primary metric expressed so that larger is worse; the
	// traced run compares it with the untraced one for trace.overhead_frac.
	cost float64
	// problems lists every correctness failure, first one first.
	problems []string
	// labels and digests identify the phase's checked outputs, in order;
	// the fold over them is what digests.json commits for seed 42.
	labels, digests []string
	// layer holds the workload's own per-layer counts and span metrics.
	layer map[string]float64
}

// report is the result of one run.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	defs      []metricDef
}

// resultLine is the JSON object printed as the last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer, clock func() time.Time) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: grid72, alg2-full, frontal or campaign-http")
		seed    = fs.Uint64("seed", 42, "seed every input of the run is derived from")
		seconds = fs.Float64("seconds", 20, "length of one timed phase in seconds")
		trace   = fs.String("trace", "0", `"0" for the end-to-end metrics; "1" or a directory for the traced run (spans and profile go to .bench_build/trace or that directory)`)
		runs    = fs.Int("runs", 1, "repeat the run this many times with seeds seed, seed+1, ... in fresh processes and print each metric's spread")
		smoke   = fs.Bool("smoke", false, "tiny inputs, for tests")
		digests = fs.Bool("digests", false, "also print the outputs' digests.json entry")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || *runs < 1 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds > 0 and -runs >= 1\n", workloadNames())
		return 2
	}
	if *runs > 1 {
		return repeat(args, *seed, *runs, stdout, stderr)
	}
	traceDir := ""
	switch *trace {
	case "", "0":
	case "1":
		traceDir = ".bench_build/trace"
	default:
		traceDir = *trace
	}
	e := &env{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		procs:  runtime.NumCPU(),
		clock:  clock,
		traced: traceDir != "",
		out:    stdout,
		size:   fullSize,

		printDigests: *digests,
	}
	if *smoke {
		e.size = smokeSize
	}
	rep, err := runWorkload(e, def, traceDir)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", def.name, err)
		return 1
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload sets the workload up several times (setup_s is the median),
// runs the untraced timed phase and checks it; a traced run then measures a
// traced phase for the per-layer metrics and a second untraced phase.
func runWorkload(e *env, def workloadDef, traceDir string) (*report, error) {
	var setupS, genS []float64
	var b bench
	for i := 0; i < e.size.setupReps; i++ {
		if b != nil {
			b.close()
		}
		tr := newTracer(e.clock())
		t0 := e.clock()
		nb, err := def.setup(e, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, e.clock().Sub(t0).Seconds())
		genS = append(genS, sumSeconds(tr.durations("workload.gen")))
		b = nb
	}
	defer b.close()

	runtime.GC()
	out, err := b.phase(nil)
	if err != nil {
		return nil, err
	}
	problems := append(out.problems, checkDigests(e, def.name, out)...)
	for _, p := range problems {
		fmt.Fprintf(e.out, "FAIL %s: %s\n", def.name, p)
	}
	rep := &report{
		correct:   len(problems) == 0,
		attempted: out.attempted,
		failed:    out.failed,
		values:    map[string]float64{},
	}
	if !e.traced {
		rep.defs = endToEnd
		lat := millis(out.lat)
		rep.values["setup_s"] = median(setupS)
		rep.values["jobs_per_s"] = out.jobsPerS
		rep.values["p50_ms"] = percentile(lat, 0.5)
		rep.values["tail_ms"] = percentile(lat, out.tailP)
		if out.jobs > 0 {
			rep.values["alloc_kb_per_job"] = float64(out.alloc) / 1024 / out.jobs
		}
		fmt.Fprintf(e.out, "%s: %d units timed over %.2fs; tail_ms is p%g\n",
			def.name, len(out.lat), out.wall.Seconds(), out.tailP*100)
		return rep, nil
	}

	runtime.GC()
	tr := newTracer(e.clock())
	var tout *phaseOut
	prof, err := profiled(func() error {
		var err error
		tout, err = b.phase(tr)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("traced phase: %w", err)
	}
	for _, p := range tout.problems {
		fmt.Fprintf(e.out, "FAIL %s (traced): %s\n", def.name, p)
		rep.correct = false
	}
	rep.attempted += tout.attempted
	rep.failed += tout.failed
	// A second untraced phase brackets the traced one, so a drift of the
	// shared machine's speed does not read as tracing overhead.
	runtime.GC()
	out2, err := b.phase(nil)
	if err != nil {
		return nil, err
	}
	for _, p := range out2.problems {
		fmt.Fprintf(e.out, "FAIL %s: %s\n", def.name, p)
		rep.correct = false
	}
	rep.attempted += out2.attempted
	rep.failed += out2.failed
	p, err := parseProfile(prof)
	if err != nil {
		return nil, fmt.Errorf("read own profile: %w", err)
	}
	attr := attribute(p)
	if err := writeTraceFiles(traceDir, def.name, tr, prof); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.out, "%s: traced phase wrote %s/%s.{spans.jsonl,cpu.pprof} (%d spans, %.2fs CPU sampled)\n",
		def.name, traceDir, def.name, len(tr.spans), float64(attr.total)/1e9)

	rep.defs = perLayer
	for _, l := range layers {
		rep.values[l+".cpu_frac"] = attr.self[l]
	}
	for _, in := range inclusive {
		rep.values[in.metric] = attr.inclusive[in.metric]
	}
	// Generation happens in setup, except for campaign-http, whose traced
	// phase generates the traces of its in-process replay.
	rep.values["workload.gen_s"] = median(genS)
	if rep.values["workload.gen_s"] == 0 {
		rep.values["workload.gen_s"] = sumSeconds(tr.durations("workload.gen"))
	}
	for _, d := range perLayer {
		if v, ok := tout.layer[d.name]; ok {
			rep.values[d.name] = v
		}
	}
	rep.values["gc.peak_rss_mb"] = peakRSSMB()
	if base := (out.cost + out2.cost) / 2; base > 0 {
		rep.values["trace.overhead_frac"] = tout.cost/base - 1
	}
	return rep, nil
}

func sumSeconds(ds []time.Duration) float64 {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s.Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// printReport prints every metric by name with its unit, then the result
// object as the last line.
func printReport(w io.Writer, rep *report) error {
	line := resultLine{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(rep.defs))}
	for _, d := range rep.defs {
		v := rep.values[d.name]
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// repeat runs the benchmark runs times in fresh processes, the way an
// external driver would, with seeds seed, seed+1, ..., and prints each
// metric's median, quartiles, extremes and spread (interquartile range over
// median). The last line is the result object with every metric's median.
func repeat(args []string, seed uint64, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	var child []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(a, "=")
		if name == "runs" || name == "seed" {
			if !hasValue {
				i++
			}
			continue
		}
		child = append(child, args[i])
	}
	values := map[string][]float64{}
	total := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	defs := append(append([]metricDef(nil), endToEnd...), perLayer...)
	for i := 0; i < runs; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, append([]string{"-seed", strconv.FormatUint(s, 10)}, child...)...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, perr := lastResult(out.Bytes())
		if perr != nil {
			fmt.Fprintf(stderr, "bench: run %d (seed %d): %v (%v)\n", i, s, perr, runErr)
			return 1
		}
		fmt.Fprintf(stdout, "run %d seed %d correct=%v attempted=%d failed=%d\n", i, s, res.Correct, res.Attempted, res.Failed)
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "FAIL ") {
				fmt.Fprintf(stdout, "  %s\n", l)
			}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				values[d.name] = append(values[d.name], m.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-28s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, d := range defs {
		n, xs := d.name, values[d.name]
		if len(xs) == 0 {
			continue
		}
		q1, med, q3 := quartiles(xs)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		fmt.Fprintf(stdout, "%-28s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f %s\n", n, med, q1, q3, lo, hi, spread, d.unit)
		total.Metrics[n] = metricValue{Value: med, Unit: d.unit}
	}
	b, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !total.Correct {
		return 1
	}
	return 0
}

// lastResult parses the result object from the last non-empty line.
func lastResult(out []byte) (resultLine, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res resultLine
	if last == "" {
		return res, errors.New("no output")
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}
