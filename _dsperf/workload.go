package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"tpcds/internal/datagen"
	"tpcds/internal/driver"
	"tpcds/internal/exec"
	"tpcds/internal/maintenance"
	"tpcds/internal/obs"
	"tpcds/internal/qgen"
	"tpcds/internal/queries"
	"tpcds/internal/schema"
	"tpcds/internal/sql"
)

// workload is one named input the benchmark runs. A workload with
// rounds == 0 is the Figure 11 benchmark test (load, Query Run 1, Data
// Maintenance, Query Run 2) through driver.RunContext; one with
// rounds > 0 loads once and then runs that many maintenance rounds,
// each followed by one reporting-class query.
type workload struct {
	name        string
	why         string
	sf          float64
	parallelism int
	rounds      int
	// splitsFacts marks a workload whose traced run must see a fact
	// table scanned as 2+ morsels; one that sees none is not correct.
	splitsFacts bool
}

var workloads = []workload{
	{
		name:        "power-sf0.01-p1",
		why:         "Figure 11 test, 1 stream, serial: query execution and planning dominate; heap allocation repeats to 0.02% for a seed",
		sf:          0.01,
		parallelism: 1,
	},
	{
		name:        "morsel-sf0.03-p2",
		why:         "Figure 11 test, 1 stream, 2 workers: store_sales and inventory span 2+ morsels, so parallel fact scans run",
		sf:          0.03,
		parallelism: 2,
		splitsFacts: true,
	},
	{
		name:        "refresh-sf0.01-p1",
		why:         "108 maintenance rounds, each followed by a reporting query on just-invalidated indexes, stats and plans",
		sf:          0.01,
		parallelism: 1,
		rounds:      108,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is one run of a workload.
type config struct {
	wl   workload
	seed uint64
	// queryIDs restricts the templates (nil runs all 99); hook is
	// installed as the engine's query hook. Both exist for the harness's
	// own tests.
	queryIDs []int
	hook     func(query string)
}

func (c config) templates() ([]qgen.Template, error) {
	if len(c.queryIDs) == 0 {
		return queries.All(), nil
	}
	out := make([]qgen.Template, 0, len(c.queryIDs))
	for _, id := range c.queryIDs {
		t, err := queries.ByID(id)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// reportingTemplates keeps the templates that touch only the catalog
// channel (§2.2), the ones the refresh rounds rotate through.
func reportingTemplates(all []qgen.Template) []qgen.Template {
	var out []qgen.Template
	for _, t := range all {
		if qgen.ClassOf(t) == qgen.Reporting {
			out = append(out, t)
		}
	}
	return out
}

// answers is what a run produced, in the form the pins hold: query
// result digests keyed "<run>/<template>" (Figure 11) or
// "<round>/<template>" (refresh), "error" for a failed execution, and
// the row counts of each data maintenance operation, one per
// maintenance run in order.
type answers struct {
	Queries map[string]string `json:"queries"`
	DM      map[string][]int  `json:"dm"`
}

const failedAnswer = "error"

func newAnswers() answers {
	return answers{Queries: map[string]string{}, DM: map[string][]int{}}
}

// fig11DMRuns is the number of data maintenance runs in a Figure 11
// pass: the test's own, then more on the same database after Query
// Run 2, outside the test's timings. One run takes tens of
// milliseconds at these scale factors, so a single reading is mostly
// GC jitter; dm_s is the sum over all of them.
const fig11DMRuns = 16

// pass is one measured execution of a workload.
type pass struct {
	wall, load, qr1, dm, qr2 time.Duration
	dmRuns                   []time.Duration // each maintenance run
	executions               int             // query executions attempted
	latencies                []time.Duration // successful executions
	alloc                    uint64          // heap bytes allocated over the pass
	streams                  int
	ans                      answers
}

func (p *pass) qphds(sf float64) float64 {
	return qphds(sf, p.streams, p.executions, p.load, p.qr1, p.dm, p.qr2)
}

func (p *pass) recordQuery(key string, d time.Duration, r *exec.Result, err error) {
	p.executions++
	if err != nil {
		p.ans.Queries[key] = failedAnswer
		return
	}
	p.latencies = append(p.latencies, d)
	p.ans.Queries[key] = digestHex(digest(r))
}

func (p *pass) recordDM(st maintenance.Stats) {
	for _, op := range st.Ops {
		p.ans.DM[op.Name] = append(p.ans.DM[op.Name], op.Rows)
	}
}

// runPass runs one untraced pass of the workload.
func runPass(ctx context.Context, c config) (pass, error) {
	if c.wl.rounds > 0 {
		r := &runner{c: c}
		return r.refresh(ctx)
	}
	return runFigure11(ctx, c)
}

func (c config) driverConfig(ids []int) driver.Config {
	return driver.Config{
		SF:          c.wl.sf,
		Streams:     1,
		Seed:        c.seed,
		Parallelism: c.wl.parallelism,
		Digest:      true,
		QueryIDs:    ids,
		OnError:     driver.OnErrorSkip,
		QueryHook:   c.hook,
	}
}

// runFigure11 runs the benchmark test through driver.RunContext, the
// path dsbench uses, and keeps its raw timings and answers.
func runFigure11(ctx context.Context, c config) (pass, error) {
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	res, err := driver.RunContext(ctx, c.driverConfig(c.queryIDs))
	wall := time.Since(start)
	after := readRuntime()
	if err != nil {
		return pass{}, err
	}
	t := res.Report.Timings
	p := pass{
		wall: wall, load: t.Load, qr1: t.QR1, dm: t.DM, qr2: t.QR2,
		alloc:   after.sub(before).allocBytes,
		streams: res.Report.Streams,
		ans:     newAnswers(),
	}
	for _, qt := range res.Queries {
		key := fmt.Sprintf("%d/%d", qt.Run, qt.QueryID)
		p.executions++
		if qt.Err != "" {
			p.ans.Queries[key] = failedAnswer
			continue
		}
		p.latencies = append(p.latencies, qt.Exec)
		p.ans.Queries[key] = digestHex(qt.Checksum)
	}
	p.recordDM(res.DMStats)
	p.dmRuns = []time.Duration{t.DM}
	r := &runner{c: c, eng: res.Engine, p: p}
	if err := r.moreMaintenance(); err != nil {
		return pass{}, err
	}
	return r.p, nil
}

// moreMaintenance runs maintenance runs 2..fig11DMRuns after a Figure
// 11 test. They start from a collected heap: a GC cycle inside them
// adds a third to their time, and whether one lands there would
// otherwise depend on where Query Run 2 left the heap. Their
// allocations still count in alloc_gb.
func (r *runner) moreMaintenance() error {
	runtime.GC()
	sp := r.rec.begin("driver.dm_more")
	defer r.rec.end(sp)
	for n := 2; n <= fig11DMRuns; n++ {
		d, err := r.maintain(n)
		if err != nil {
			return err
		}
		r.p.dmRuns = append(r.p.dmRuns, d)
	}
	return nil
}

// setupProbe measures one more set-up of the workload without running
// it: for Figure 11 workloads the load test of a one-template
// driver.RunContext run, for refresh the benchmark's own load.
func setupProbe(ctx context.Context, c config) (time.Duration, error) {
	runtime.GC()
	if c.wl.rounds > 0 {
		r := &runner{c: c}
		r.load()
		return r.p.load, nil
	}
	tpl, err := c.templates()
	if err != nil {
		return 0, err
	}
	res, err := driver.RunContext(ctx, c.driverConfig([]int{tpl[0].ID}))
	if err != nil {
		return 0, err
	}
	return res.Report.Timings.Load, nil
}

// runner issues a workload's calls into each layer from the
// benchmark's own code. With rec set every call gets a span and the
// layer counters in lay are filled; with rec nil it is the untraced
// refresh pass.
type runner struct {
	c   config
	rec *recorder
	lay *layerStats
	eng *exec.Engine
	p   pass
}

// load generates the database and warms the auxiliary structures the
// way the driver's load test does (§5.2): hash indexes on every
// single-column dimension key, bitmap indexes on the catalog_sales
// foreign keys.
func (r *runner) load() {
	c := r.c
	r.p.ans = newAnswers()
	r.p.streams = 1
	start := time.Now()
	lsp := r.rec.begin("driver.load")
	defer r.rec.end(lsp)

	gen := datagen.New(c.wl.sf, c.seed)
	var tr *obs.Tracer
	var troot *obs.Span
	var trStart time.Time
	if r.rec != nil {
		trStart = time.Now()
		tr = obs.NewTracer()
		troot = tr.Root("datagen", "benchmark")
		gen.SetObservability(troot, nil)
	}
	before := r.sample()
	gsp := r.rec.begin("datagen.generate")
	db := gen.GenerateAll()
	r.rec.end(gsp)
	troot.End()
	if r.lay != nil {
		r.lay.datagenAlloc = r.sample().sub(before).allocBytes
		for _, name := range db.Names() {
			r.lay.datagenRows += int64(db.Table(name).NumRows())
		}
		r.rec.adopt(tr.Snapshot(), gsp, trStart, datagenPhases)
	}

	// exec.New's defaults (cost planner, vectorized batches, engine
	// morsel and batch sizes) are the driver's defaults.
	eng := exec.New(db)
	eng.SetParallelism(c.wl.parallelism)
	eng.SetQueryHook(c.hook)
	if r.lay != nil {
		eng.SetMetrics(r.lay.reg)
		eng.SetProfiling(true)
	}

	before = r.sample()
	for _, name := range db.Names() {
		t := db.Table(name)
		if t.Def.Kind != schema.Dimension || len(t.Def.PrimaryKey) != 1 {
			continue
		}
		sp := r.rec.begin("index.warm_hash")
		eng.WarmHashIndex(t.Def.Name, t.Def.PrimaryKey[0])
		r.rec.end(sp)
	}
	for _, fk := range db.Table("catalog_sales").Def.ForeignKeys {
		sp := r.rec.begin("index.warm_bitmap")
		eng.WarmBitmapIndex("catalog_sales", fk.Column)
		r.rec.end(sp)
	}
	if r.lay != nil {
		r.lay.warmAlloc = r.sample().sub(before).allocBytes
		r.lay.noteFacts(db)
	}
	r.eng = eng
	r.p.load = time.Since(start)
}

// sample reads the runtime counters on traced runs only, so the
// untraced pass does no extra work.
func (r *runner) sample() rtSample {
	if r.lay == nil {
		return rtSample{}
	}
	return readRuntime()
}

// query instantiates one template for a stream, parses it on traced
// runs (the engine parses again inside the query; the separate call
// gives the sql layer its own span), and executes it.
func (r *runner) query(ctx context.Context, key string, t qgen.Template, stream int) (time.Duration, error) {
	isp := r.rec.begin("qgen.instantiate")
	text, err := qgen.Instantiate(t, qgen.StreamSeed(r.c.seed, stream, t.ID))
	r.rec.end(isp)
	if err != nil {
		return 0, fmt.Errorf("instantiate template %d: %w", t.ID, err)
	}
	if r.rec != nil {
		psp := r.rec.begin("sql.parse")
		_, _ = sql.Parse(text) // a parse error fails the query below, where it is counted
		r.rec.end(psp)
	}
	before := r.sample()
	esp := r.rec.begin("exec.query")
	start := time.Now()
	res, tr, err := r.eng.QueryTracedContext(ctx, text)
	d := time.Since(start)
	r.rec.end(esp)
	if r.lay != nil {
		r.lay.exec.add(r.sample().sub(before))
		if err == nil {
			r.lay.resultRows += int64(len(res.Rows))
			r.lay.addProfile(tr.Profile)
		}
	}
	r.p.recordQuery(key, d, res, err)
	return d, nil
}

// maintain runs one data maintenance run: refresh generation and the
// 12 maintenance operations.
func (r *runner) maintain(n int) (time.Duration, error) {
	start := time.Now()
	gsp := r.rec.begin("maintenance.generate_refresh")
	rs, err := maintenance.GenerateRefresh(r.eng.DB(), r.c.seed, n)
	r.rec.end(gsp)
	if err != nil {
		return 0, fmt.Errorf("refresh generation %d: %w", n, err)
	}
	msp := r.rec.begin("maintenance.run")
	st, err := maintenance.Run(r.eng, rs)
	r.rec.end(msp)
	if err != nil {
		return 0, fmt.Errorf("maintenance run %d: %w", n, err)
	}
	if r.lay != nil {
		r.lay.addDM(st)
		r.lay.noteFacts(r.eng.DB())
	}
	r.p.recordDM(st)
	return time.Since(start), nil
}

// figure11 is the traced counterpart of driver.RunContext with one
// stream: the same permutations, substitution streams (run 2 uses
// stream 1000) and warm-up set.
func (r *runner) figure11(ctx context.Context) (pass, error) {
	runtime.GC()
	start := time.Now()
	psp := r.rec.begin("driver.pass")
	r.load()
	tpl, err := r.c.templates()
	if err != nil {
		return pass{}, err
	}
	queryRun := func(run int) (time.Duration, error) {
		sp := r.rec.begin(fmt.Sprintf("driver.qr%d", run))
		defer r.rec.end(sp)
		qstart := time.Now()
		stream := (run - 1) * 1000
		for _, idx := range qgen.SessionPermutation(r.c.seed, stream, tpl) {
			t := tpl[idx]
			if _, err := r.query(ctx, fmt.Sprintf("%d/%d", run, t.ID), t, stream); err != nil {
				return 0, err
			}
		}
		return time.Since(qstart), nil
	}
	if r.p.qr1, err = queryRun(1); err != nil {
		return pass{}, err
	}
	sp := r.rec.begin("driver.dm")
	r.p.dm, err = r.maintain(1)
	r.rec.end(sp)
	if err != nil {
		return pass{}, err
	}
	r.p.dmRuns = append(r.p.dmRuns, r.p.dm)
	if r.p.qr2, err = queryRun(2); err != nil {
		return pass{}, err
	}
	r.rec.end(psp)
	r.p.wall = time.Since(start)
	if err := r.moreMaintenance(); err != nil {
		return pass{}, err
	}
	return r.p, nil
}

// refresh loads once and runs the maintenance rounds. Round n runs
// refresh set n, then the next reporting template in the seed's
// session order with lap-specific substitutions. The first half of the
// rounds' query time is reported as qr1, the second half as qr2.
func (r *runner) refresh(ctx context.Context) (pass, error) {
	runtime.GC()
	before := readRuntime()
	start := time.Now()
	psp := r.rec.begin("driver.pass")
	defer r.rec.end(psp)
	r.load()
	all, err := r.c.templates()
	if err != nil {
		return pass{}, err
	}
	tpl := reportingTemplates(all)
	if len(tpl) == 0 {
		return pass{}, fmt.Errorf("no reporting-class template among %d", len(all))
	}
	order := qgen.SessionPermutation(r.c.seed, 0, tpl)
	for n := 1; n <= r.c.wl.rounds; n++ {
		sp := r.rec.begin("driver.round")
		dm, err := r.maintain(n)
		if err != nil {
			r.rec.end(sp)
			return pass{}, err
		}
		r.p.dm += dm
		r.p.dmRuns = append(r.p.dmRuns, dm)
		t := tpl[order[(n-1)%len(tpl)]]
		lap := (n - 1) / len(tpl)
		d, err := r.query(ctx, fmt.Sprintf("%d/%d", n, t.ID), t, lap)
		r.rec.end(sp)
		if err != nil {
			return pass{}, err
		}
		if 2*n <= r.c.wl.rounds {
			r.p.qr1 += d
		} else {
			r.p.qr2 += d
		}
	}
	r.p.wall = time.Since(start)
	r.p.alloc = readRuntime().sub(before).allocBytes
	return r.p, nil
}
