// Command dsperf is the repository's benchmark. It runs one named
// workload with a seed and prints its metrics; the last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 420, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off over passes repeated for --seconds. With --trace 1 the
// run adds one traced pass, whose spans around every call into a layer
// give the per-layer metrics. Every query answer and maintenance row
// count is compared against answers pinned from a reference tree.
//
// Run it from the repository root with run.sh, which builds it:
//
//	bash _dsperf/run.sh --workload power-sf0.01-p1 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// minSetups is the least number of set-ups setup_s is the median of.
// Every pass sets up once; a run adds set-up probes to reach this.
const minSetups = 3

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("dsperf", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Uint64("seed", 1, "input seed; one of the pinned seeds 1..10 unless --wrap-seed is given")
	wrap := fs.Bool("wrap-seed", false, "accept any --seed by reading pinned input seed (seed-1)%10+1; BENCHMARK.json passes it")
	secs := fs.Int("seconds", 20, "measure passes until this many seconds have elapsed (at least one pass)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: add a traced pass and report per-layer metrics")
	out := fs.String("out", ".bench_build/dsperf-out", "directory for the full result and the span file")
	pin := fs.String("pin", "", "write the workload's pinned answers for seeds 1..10 into this directory and exit")
	list := fs.Bool("list", false, "print the workloads and the metrics and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList()
		return 0
	}
	wl, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsperf:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "dsperf: --trace must be 0 or 1")
		return 2
	}
	ctx := context.Background()
	if *pin != "" {
		if err := pinWorkload(ctx, wl, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "dsperf:", err)
			return 1
		}
		return 0
	}

	c := config{wl: wl, seed: *seed}
	if *wrap {
		c.seed = inputSeed(*seed)
	}
	pins, err := loadPins(wl.name, c.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsperf:", err)
		return 1
	}
	host := collectHost(".")
	fmt.Printf("dsperf workload=%s seed=%d input-seed=%d trace=%d seconds=%d\n", wl.name, *seed, c.seed, *trace, *secs)
	hb, _ := json.Marshal(host) // a struct of strings and ints always encodes
	fmt.Printf("host %s\n", hb)

	var rep report
	if *trace == 1 {
		rep, err = traced(ctx, c, pins, *out)
	} else {
		rep, err = measure(ctx, c, time.Duration(*secs)*time.Second, pins)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsperf:", err)
		return 1
	}
	rep.Host = host
	rep.print()
	if err := rep.save(*out, fmt.Sprintf("%s-seed%d-trace%d.json", wl.name, *seed, *trace)); err != nil {
		fmt.Fprintln(os.Stderr, "dsperf: saving the full result:", err)
	}
	res, _ := json.Marshal(rep.result()) // maps of floats and strings always encode
	fmt.Println(string(res))
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	Workload string                 `json:"workload"`
	Seed     uint64                 `json:"input_seed"`
	Host     hostFacts              `json:"host"`
	Metrics  map[string]metricValue `json:"metrics"`
	Passes   []passSummary          `json:"passes"`
	Setups   []float64              `json:"setup_s_samples"`
	// Unscaled holds the timing metrics as the same medians of the
	// figures before reference-kernel scaling; RefS holds the kernel's
	// time at each point, in order.
	Unscaled map[string]float64 `json:"unscaled,omitempty"`
	RefS     []float64          `json:"ref_kernel_s,omitempty"`
	tally    tally
}

// passSummary is the raw record of one pass kept in the full result.
type passSummary struct {
	Traced     bool    `json:"traced"`
	WallS      float64 `json:"wall_s"`
	LoadS      float64 `json:"load_s"`
	QR1S       float64 `json:"qr1_s"`
	DMS        float64 `json:"dm_s"`
	DMTotalS   float64 `json:"dm_total_s"` // every maintenance run of the pass
	QR2S       float64 `json:"qr2_s"`
	QphDS      float64 `json:"qphds"`
	GeomeanMs  float64 `json:"query_geomean_ms"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Executions int     `json:"executions"`
	Correct    int     `json:"correct"`
	Attempted  int     `json:"attempted"`
}

func summarize(p pass, sf float64, traced bool, t tally) passSummary {
	return passSummary{
		Traced: traced, WallS: seconds(p.wall), LoadS: seconds(p.load),
		QR1S: seconds(p.qr1), DMS: seconds(p.dm), DMTotalS: sumSeconds(p.dmRuns), QR2S: seconds(p.qr2),
		QphDS: p.qphds(sf), GeomeanMs: geomeanMs(p.latencies),
		AllocBytes: p.alloc, Executions: p.executions,
		Correct: t.correct, Attempted: t.attempted,
	}
}

// endToEnd lists the end-to-end metrics: name, unit, better direction.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qphds", "QphDS", "higher"},
	{"query_geomean_ms", "ms", "lower"},
	{"dm_s", "s", "lower"},
	{"alloc_gb", "GB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"correct_frac", "ratio", "higher"},
}

// measure sets up once to warm the process, runs untraced passes until
// d has elapsed, sets up again until there are minSetups set-up
// samples, and reports the end-to-end metrics as medians. The
// reference kernel runs at the start and after every set-up and pass;
// the timing figures of each are scaled by the kernel points on either
// side (see refScale).
func measure(ctx context.Context, c config, d time.Duration, pins answers) (report, error) {
	rep := report{Workload: c.wl.name, Seed: c.seed}
	var ref refScale
	ref.next()
	// raw and scaled hold each timing metric's per-set-up or per-pass
	// values, unscaled and scaled.
	raw, scaled := map[string][]float64{}, map[string][]float64{}
	add := func(name string, v, f float64) {
		raw[name] = append(raw[name], v)
		if name == "qphds" {
			f = 1 / f // a rate, not a time
		}
		scaled[name] = append(scaled[name], v*f)
	}
	probe := func() error {
		load, err := setupProbe(ctx, c)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		add("setup_s", seconds(load), ref.next())
		return nil
	}
	if err := probe(); err != nil {
		return rep, err
	}
	var alloc []float64
	start := time.Now()
	for len(rep.Passes) == 0 || time.Since(start) < d {
		p, err := runPass(ctx, c)
		if err != nil {
			return rep, fmt.Errorf("pass %d: %w", len(rep.Passes)+1, err)
		}
		f := ref.next()
		t := score(p.ans, pins)
		rep.tally.add(t)
		rep.Passes = append(rep.Passes, summarize(p, c.wl.sf, false, t))
		add("setup_s", seconds(p.load), f)
		add("qphds", p.qphds(c.wl.sf), f)
		add("query_geomean_ms", geomeanMs(p.latencies), f)
		add("dm_s", sumSeconds(p.dmRuns), f)
		alloc = append(alloc, float64(p.alloc)/1e9)
	}
	for len(raw["setup_s"]) < minSetups {
		if err := probe(); err != nil {
			return rep, err
		}
	}
	rep.Setups, rep.RefS = raw["setup_s"], ref.points
	values := map[string]float64{
		"alloc_gb":     median(alloc),
		"peak_rss_mb":  peakRSSMB(),
		"correct_frac": rep.tally.frac(),
	}
	rep.Unscaled = map[string]float64{}
	for name, xs := range scaled {
		values[name] = median(xs)
		rep.Unscaled[name] = median(raw[name])
	}
	rep.Metrics = withUnits(endToEnd, values)
	return rep, nil
}

// traced warms the process with one set-up, then runs an untraced
// pass, the traced pass and another untraced pass. The median wall time
// of the untraced pair is what the tracing overhead is measured
// against, so drift of the host over the three passes largely cancels;
// every pass is checked against the pins.
func traced(ctx context.Context, c config, pins answers, out string) (report, error) {
	rep := report{Workload: c.wl.name, Seed: c.seed}
	load, err := setupProbe(ctx, c)
	if err != nil {
		return rep, fmt.Errorf("set-up probe: %w", err)
	}
	rep.Setups = append(rep.Setups, seconds(load))
	var walls []float64
	untraced := func() error {
		p, err := runPass(ctx, c)
		if err != nil {
			return fmt.Errorf("untraced pass: %w", err)
		}
		t := score(p.ans, pins)
		rep.tally.add(t)
		rep.Passes = append(rep.Passes, summarize(p, c.wl.sf, false, t))
		walls = append(walls, seconds(p.wall))
		return nil
	}
	if err := untraced(); err != nil {
		return rep, err
	}

	rec := newRecorder(fmt.Sprintf("%s/seed%d", c.wl.name, c.seed))
	lay := newLayerStats()
	r := &runner{c: c, rec: rec, lay: lay}
	var tp pass
	if c.wl.rounds > 0 {
		tp, err = r.refresh(ctx)
	} else {
		tp, err = r.figure11(ctx)
	}
	if err != nil {
		return rep, fmt.Errorf("traced pass: %w", err)
	}
	lay.planHits, lay.planMiss = r.eng.PlanCacheStats()
	t := score(tp.ans, pins)
	if c.wl.splitsFacts {
		t.attempted++
		if lay.factScansSplit > 0 {
			t.correct++
		} else {
			t.mismatches = append(t.mismatches, "no fact-table scan ran as 2+ morsels")
		}
	}
	rep.tally.add(t)
	rep.Passes = append(rep.Passes, summarize(tp, c.wl.sf, true, t))
	if err := untraced(); err != nil {
		return rep, err
	}
	untracedWall := time.Duration(median(walls) * float64(time.Second))
	rep.Metrics = withUnits(perLayer, layerValues(rec, lay, tp, untracedWall))
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans.jsonl", c.wl.name, c.seed))
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dsperf: writing spans:", err)
	} else if err := rec.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "dsperf: writing spans:", err)
	}
	return rep, nil
}

func withUnits(defs []metricDef, values map[string]float64) map[string]metricValue {
	m := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		m[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return m
}

// resultLine is the last line of the output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (rep report) result() resultLine {
	return resultLine{
		Correct:   rep.tally.attempted > 0 && rep.tally.correct == rep.tally.attempted && rep.tally.failed == 0,
		Attempted: rep.tally.attempted,
		Failed:    rep.tally.failed,
		Metrics:   rep.Metrics,
	}
}

// print writes the human-readable lines: every metric with its unit,
// then the raw passes and any answer that differs from the pins.
func (rep report) print() {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	for i, p := range rep.Passes {
		fmt.Printf("pass %d traced=%v wall=%.3fs load=%.3fs qr1=%.3fs dm=%.3fs qr2=%.3fs dm_total=%.3fs qphds=%.2f geomean=%.4fms alloc=%d correct=%d/%d\n",
			i+1, p.Traced, p.WallS, p.LoadS, p.QR1S, p.DMS, p.QR2S, p.DMTotalS, p.QphDS, p.GeomeanMs, p.AllocBytes, p.Correct, p.Attempted)
	}
	if len(rep.RefS) > 0 {
		fmt.Printf("reference kernel %s ms; unscaled setup_s %.4f qphds %.2f query_geomean_ms %.4f dm_s %.4f\n",
			joinMillis(rep.RefS), rep.Unscaled["setup_s"], rep.Unscaled["qphds"], rep.Unscaled["query_geomean_ms"], rep.Unscaled["dm_s"])
	}
	fmt.Printf("correct %d/%d failed %d\n", rep.tally.correct, rep.tally.attempted, rep.tally.failed)
	for _, m := range rep.tally.mismatches {
		fmt.Printf("mismatch %s\n", m)
	}
}

func (rep report) save(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(b, '\n'), 0o644)
}

// pinWorkload runs one untraced pass per pinned seed and writes the
// answers as the workload's reference.
func pinWorkload(ctx context.Context, wl workload, dir string) error {
	bySeed := map[uint64]answers{}
	for seed := uint64(1); seed <= pinnedSeeds; seed++ {
		p, err := runPass(ctx, config{wl: wl, seed: seed})
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		fmt.Fprintf(os.Stderr, "pinned %s seed %d: %d query executions, %d maintenance operations\n", wl.name, seed, len(p.ans.Queries), len(p.ans.DM))
		bySeed[seed] = p.ans
	}
	return writePins(dir, wl.name, bySeed)
}

func printList() {
	for _, w := range workloads {
		fmt.Printf("workload %-20s %s\n", w.name, w.why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %-30s %-6s %s\n", m.name, m.unit, m.better)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer %-31s %-6s %s\n", m.name, m.unit, m.better)
	}
}
