package main

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tpcds/internal/metric"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
)

// tinyIDs is a template subset that covers the executor's operator
// kinds and includes reporting-class templates for the refresh rounds.
var tinyIDs = func() []int {
	ids := []int{3, 7, 19, 42, 52}
	for _, t := range queries.All() {
		if qgen.ClassOf(t) == qgen.Reporting {
			ids = append(ids, t.ID)
			if len(ids) == 8 {
				break
			}
		}
	}
	return ids
}()

func tinyConfig(rounds, parallelism int) config {
	return config{
		wl:       workload{name: "tiny", sf: 0.002, parallelism: parallelism, rounds: rounds},
		seed:     3,
		queryIDs: tinyIDs,
	}
}

func TestQphDSAgreesWithMetric(t *testing.T) {
	cases := []struct {
		sf                 float64
		streams, perStream int
		tm                 metric.Timings
	}{
		{0.01, 1, 99, metric.Timings{Load: 2300 * time.Millisecond, QR1: 5 * time.Second, DM: 29 * time.Millisecond, QR2: 4500 * time.Millisecond}},
		{1, 4, 99, metric.Timings{Load: time.Minute, QR1: 3 * time.Minute, DM: 20 * time.Second, QR2: 190 * time.Second}},
		{0.03, 1, 5, metric.Timings{Load: 2 * time.Second, QR1: 40 * time.Millisecond, DM: time.Millisecond, QR2: 50 * time.Millisecond}},
	}
	for _, c := range cases {
		got := qphds(c.sf, c.streams, 2*c.perStream*c.streams, c.tm.Load, c.tm.QR1, c.tm.DM, c.tm.QR2)
		want := metric.QphDSForQueries(c.sf, c.streams, c.perStream, c.tm)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("qphds(%v) = %v, metric.QphDSForQueries = %v", c, got, want)
		}
	}

	// A real pass: the harness's figure from raw driver timings agrees
	// with the metric package's.
	c := tinyConfig(0, 1)
	p, err := runFigure11(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	want := metric.QphDSForQueries(c.wl.sf, 1, len(tinyIDs), metric.Timings{Load: p.load, QR1: p.qr1, DM: p.dm, QR2: p.qr2})
	if got := p.qphds(c.wl.sf); math.Abs(got-want) > 1e-9*want || got <= 0 {
		t.Errorf("pass qphds = %v, metric.QphDSForQueries = %v", got, want)
	}
}

// TestTracedSequenceMatchesDriver runs the traced sequence and
// driver.RunContext on the same input: every query digest and
// maintenance row count must agree, serial and with two workers.
func TestTracedSequenceMatchesDriver(t *testing.T) {
	for _, par := range []int{1, 2} {
		c := tinyConfig(0, par)
		want, err := runFigure11(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{c: c, rec: newRecorder("test"), lay: newLayerStats()}
		got, err := r.figure11(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if len(want.ans.Queries) != 2*len(tinyIDs) || len(want.ans.DM) != 12 || len(want.ans.DM["delete_web"]) != fig11DMRuns {
			t.Fatalf("driver pass has %d digests and %d maintenance counts", len(want.ans.Queries), len(want.ans.DM))
		}
		if !reflect.DeepEqual(got.ans, want.ans) {
			t.Errorf("parallelism %d: traced answers differ from driver.RunContext:\n got %v\nwant %v", par, got.ans, want.ans)
		}
		if s := score(got.ans, want.ans); s.frac() != 1 || s.failed != 0 {
			t.Errorf("parallelism %d: score = %+v", par, s)
		}
	}
}

// TestTracedPassEmitsEveryLayerMetric checks the traced pass fills
// every per-layer metric with a finite value and that the span tree
// accounts for the layers.
func TestTracedPassEmitsEveryLayerMetric(t *testing.T) {
	c := tinyConfig(4, 1)
	untraced, err := runPass(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("test")
	lay := newLayerStats()
	r := &runner{c: c, rec: rec, lay: lay}
	tp, err := r.refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tp.ans, untraced.ans) {
		t.Errorf("traced refresh answers differ from the untraced pass")
	}
	v := layerValues(rec, lay, tp, untraced.wall)
	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("per-layer metric %s = %v (present %v)", m.name, x, ok)
		}
	}
	for _, name := range []string{"datagen.generate_s", "datagen.dims_s", "index.warm_hash_s", "exec.query_s", "maintenance.run_s", "driver.queries"} {
		if v[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, v[name])
		}
	}
	if u := v["obs.uncovered_frac"]; u < 0 || u > 0.5 {
		t.Errorf("uncovered share %v outside [0, 0.5]", u)
	}
	if got := v["driver.queries"]; got != 4 {
		t.Errorf("driver.queries = %v, want 4", got)
	}
}

// TestInjectedFailureCounts fails one query through the driver's query
// hook: it must lower correct_frac and count as a failed operation.
func TestInjectedFailureCounts(t *testing.T) {
	c := tinyConfig(0, 1)
	clean, err := runFigure11(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	c.hook = func(string) {
		if calls.Add(1) == 2 {
			panic("injected fault")
		}
	}
	faulty, err := runFigure11(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	s := score(faulty.ans, clean.ans)
	if s.failed != 1 {
		t.Errorf("failed = %d, want 1", s.failed)
	}
	if s.frac() >= 1 || s.correct != s.attempted-1 {
		t.Errorf("correct %d of %d (frac %v), want exactly one incorrect", s.correct, s.attempted, s.frac())
	}
	rep := report{tally: s}
	if res := rep.result(); res.Correct || res.Failed != 1 {
		t.Errorf("result = %+v, want correct false with one failure", res)
	}
}

func TestPinsAndSeeds(t *testing.T) {
	for _, w := range workloads {
		for seed := uint64(1); seed <= pinnedSeeds; seed++ {
			a, err := loadPins(w.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Queries) == 0 || len(a.DM) == 0 {
				t.Errorf("%s seed %d: empty pins", w.name, seed)
			}
		}
		if _, err := loadPins(w.name, pinnedSeeds+1); err == nil {
			t.Errorf("%s: an unpinned seed loaded without error", w.name)
		}
	}
	if _, err := loadPins("no-such-workload", 1); err == nil {
		t.Error("pins of an unknown workload loaded without error")
	}
	for n, want := range map[uint64]uint64{0: 10, 1: 1, 2: 2, 10: 10, 11: 1, 25: 5} {
		if got := inputSeed(n); got != want {
			t.Errorf("inputSeed(%d) = %d, want %d", n, got, want)
		}
	}
	// A run with no answer at all is never correct; a differing
	// maintenance count is one incorrect operation.
	pin := answers{Queries: map[string]string{"1/1": "a"}, DM: map[string][]int{"delete_web": {5, 6}}}
	got := answers{Queries: map[string]string{"1/1": "a"}, DM: map[string][]int{"delete_web": {5, 7}}}
	if s := score(got, pin); s.attempted != 3 || s.correct != 2 || s.failed != 0 {
		t.Errorf("differing maintenance count scored %+v", s)
	}
	if s := score(newAnswers(), answers{Queries: map[string]string{"1/1": "x"}}); s.frac() != 0 || s.attempted != 1 {
		t.Errorf("missing answer scored %+v", s)
	}
}

func TestRecorderUncovered(t *testing.T) {
	r := &recorder{}
	r.spans = []span{
		{ID: 1, Name: "driver.pass", Start: 10, End: 110},
		{ID: 2, Parent: 1, Name: "driver.load", Start: 10, End: 110},
		{ID: 3, Parent: 2, Name: "datagen.generate", Start: 10, End: 50},
		{ID: 4, Parent: 3, Name: "datagen.dims", Start: 20, End: 40},
		{ID: 5, Parent: 2, Name: "index.warm_hash", Start: 60, End: 70},
		{ID: 6, Name: "maintenance.run", Start: 100, End: 130}, // 10 inside the pass
	}
	if got := r.uncovered(); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("uncovered = %v, want 0.4", got)
	}
	if got := r.total("datagen.dims"); got != 20 {
		t.Errorf("total = %v, want 20", got)
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if quantile(xs, 0.5) != 5 || quantile(xs, 0.95) != 10 || quantile(xs, 0.1) != 1 {
		t.Errorf("quantiles %v %v %v", quantile(xs, 0.5), quantile(xs, 0.95), quantile(xs, 0.1))
	}
	if got := geomeanMs([]time.Duration{time.Millisecond, 100 * time.Millisecond}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
}

// TestRefScaleBrackets checks a set-up or pass is scaled by the mean of
// the kernel points before and after it.
func TestRefScaleBrackets(t *testing.T) {
	var r refScale
	first := r.next()
	second := r.next()
	if len(r.points) != 2 {
		t.Fatalf("points = %v, want 2", r.points)
	}
	for _, p := range r.points {
		if p <= 0 || math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("kernel point %v", p)
		}
	}
	if want := refNominal.Seconds() / r.points[0]; first != want {
		t.Errorf("first factor %v, want %v", first, want)
	}
	if want := refNominal.Seconds() / ((r.points[0] + r.points[1]) / 2); second != want {
		t.Errorf("second factor %v, want %v", second, want)
	}
}

// TestUnsplitFactScansAreIncorrect runs the traced pass of a workload
// that must split fact scans at a size where no fact table fills a
// morsel: the run must not read as correct.
func TestUnsplitFactScansAreIncorrect(t *testing.T) {
	c := tinyConfig(0, 2)
	c.wl.splitsFacts = true
	clean, err := runFigure11(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := traced(context.Background(), c, clean.ans, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Metrics["exec.fact_scans_split"].Value; got != 0 {
		t.Fatalf("fact_scans_split = %v at SF 0.002, want 0", got)
	}
	if res := rep.result(); res.Correct || res.Failed != 0 || rep.tally.correct != rep.tally.attempted-1 {
		t.Errorf("result %+v with %d of %d correct, want exactly the split check incorrect", res, rep.tally.correct, rep.tally.attempted)
	}
}
