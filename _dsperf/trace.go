package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"

	"tpcds/internal/maintenance"
	"tpcds/internal/obs"
	"tpcds/internal/schema"
	"tpcds/internal/storage"
)

// span is one call into a layer, as the benchmark saw it. Spans live
// in memory and are written out when the run ends.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a top-level span
	Name   string        `json:"name"`   // "<layer>.<call>"
	Run    string        `json:"run"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder collects the spans of one traced pass. A nil recorder is
// the untraced pass: begin returns 0 and end ignores it. One goroutine
// only, so spans nest strictly.
type recorder struct {
	run   string
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	parent := 0
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Run: r.run, Start: time.Since(r.epoch)})
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.epoch)
	for i := len(r.open) - 1; i >= 0; i-- {
		if r.open[i] == id {
			r.open = r.open[:i]
			break
		}
	}
}

// adopt copies the direct children of an obs tracer's root into the
// recorder under parent, renamed through names (others are dropped).
// started is when the tracer was created, which places its clock on
// the recorder's.
func (r *recorder) adopt(recs []obs.SpanRecord, parent int, started time.Time, names map[string]string) {
	var rootID uint64
	for _, rec := range recs {
		if rec.Parent == 0 {
			rootID = rec.ID
		}
	}
	off := started.Sub(r.epoch)
	for _, rec := range recs {
		name, ok := names[rec.Name]
		if !ok || rec.Parent != rootID {
			continue
		}
		start := off + time.Duration(rec.StartNs)
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent, Name: name, Run: r.run,
			Start: start, End: start + time.Duration(rec.DurNs),
		})
	}
}

// datagenPhases names the generator's own phase spans.
var datagenPhases = map[string]string{
	"dimensions":        "datagen.dims",
	"facts":             "datagen.facts",
	"returns+inventory": "datagen.returns_inventory",
}

// total sums the durations of the spans called name.
func (r *recorder) total(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// uncovered returns the share of the driver.pass span that no layer
// span covers. Layer spans are every span except the benchmark's own
// driver.* phases.
func (r *recorder) uncovered() float64 {
	var win span
	for _, s := range r.spans {
		if s.Name == "driver.pass" {
			win = s
			break
		}
	}
	if win.dur() <= 0 {
		return 0
	}
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range r.spans {
		if !strings.HasPrefix(s.Name, "driver.") {
			ivs = append(ivs, iv{max(s.Start, win.Start), min(s.End, win.End)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	reach := win.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		if v.a < reach {
			v.a = reach
		}
		covered += v.b - v.a
		reach = v.b
	}
	return 1 - float64(covered)/float64(win.dur())
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// opKinds are the executor operators whose self time and output rows
// the traced run reports.
var opKinds = []string{"scan", "build", "probe", "star", "stream", "aggregate", "sort", "project"}

type opAgg struct {
	self    time.Duration
	rowsOut int64
}

// layerStats accumulates the counters of a traced pass that spans
// alone do not give.
type layerStats struct {
	reg                     *obs.Registry // engine counters
	datagenRows             int64
	datagenAlloc, warmAlloc uint64
	exec                    rtSample // summed over exec.query calls
	resultRows              int64
	ops                     map[string]*opAgg
	bindSelf, planSelf      time.Duration
	qerrors                 []float64
	// factRows holds the current row counts of the fact tables; a
	// scan whose input matches one and that ran as 2+ morsels is a
	// split fact scan.
	factRows           map[int64]bool
	factScansSplit     int64
	dmOps              map[string]time.Duration // by operation group
	dmRows             int64
	planHits, planMiss int64
}

func newLayerStats() *layerStats {
	l := &layerStats{reg: obs.NewRegistry(), ops: map[string]*opAgg{}, dmOps: map[string]time.Duration{}}
	for _, k := range opKinds {
		l.ops[k] = &opAgg{}
	}
	return l
}

func (l *layerStats) noteFacts(db *storage.DB) {
	l.factRows = map[int64]bool{}
	for _, name := range db.Names() {
		if t := db.Table(name); t.Def.Kind == schema.Fact {
			l.factRows[int64(t.NumRows())] = true
		}
	}
}

// addProfile folds one query's operator profile tree in: self time
// (wall minus the children's wall) and output rows per operator kind,
// bind and plan self time, q-errors of estimated nodes, and fact scans
// that ran as several morsels.
func (l *layerStats) addProfile(p *obs.OpProfile) {
	p.Walk(func(n *obs.OpProfile) {
		self := n.WallNs
		for _, c := range n.Children {
			self -= c.WallNs
		}
		if self < 0 {
			self = 0
		}
		kind, _, _ := strings.Cut(n.Name, " ")
		if a, ok := l.ops[kind]; ok {
			a.self += time.Duration(self)
			a.rowsOut += n.RowsOut
		}
		switch kind {
		case "bind":
			l.bindSelf += time.Duration(self)
		case "plan":
			l.planSelf += time.Duration(self)
		case "scan":
			if n.Morsels >= 2 && l.factRows[n.RowsIn] {
				l.factScansSplit++
			}
		}
		if n.HasEst {
			l.qerrors = append(l.qerrors, n.QError)
		}
	})
}

// dmGroup maps a maintenance operation to its reported group; an
// operation in none of them still counts in maintenance.run_s.
func dmGroup(op string) string {
	switch {
	case strings.HasPrefix(op, "update_"):
		return "dim_update"
	case strings.HasPrefix(op, "delete_"):
		return "delete"
	case strings.HasPrefix(op, "insert_"):
		return "insert"
	case op == "refresh_inventory":
		return "inventory"
	default:
		return "other"
	}
}

func (l *layerStats) addDM(st maintenance.Stats) {
	for _, op := range st.Ops {
		l.dmOps[dmGroup(op.Name)] += op.Duration
		l.dmRows += int64(op.Rows)
	}
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

var perLayer = func() []metricDef {
	m := []metricDef{
		{"datagen.generate_s", "s", "lower"},
		{"datagen.dims_s", "s", "lower"},
		{"datagen.facts_s", "s", "lower"},
		{"datagen.returns_inventory_s", "s", "lower"},
		{"datagen.rows", "count", "higher"},
		{"datagen.alloc_gb", "GB", "lower"},
		{"index.warm_hash_s", "s", "lower"},
		{"index.warm_bitmap_s", "s", "lower"},
		{"index.warm_alloc_gb", "GB", "lower"},
		{"qgen.instantiate_s", "s", "lower"},
		{"sql.parse_s", "s", "lower"},
		{"plan.bind_s", "s", "lower"},
		{"plan.plan_s", "s", "lower"},
		{"plan.cache_hits", "count", "higher"},
		{"plan.cache_lookups", "count", "lower"},
		{"plan.qerror_p50", "ratio", "lower"},
		{"plan.qerror_p95", "ratio", "lower"},
		{"exec.query_s", "s", "lower"},
		{"exec.cpu_s", "s", "lower"},
		{"exec.gc_cpu_s", "s", "lower"},
		{"exec.gc_frac", "ratio", "lower"},
		{"exec.gc_cycles", "count", "lower"},
		{"exec.alloc_gb", "GB", "lower"},
		{"exec.result_rows", "count", "higher"},
		{"exec.rows_scanned", "count", "lower"},
		{"exec.morsels", "count", "higher"},
		{"exec.fact_scans_split", "count", "higher"},
	}
	for _, k := range opKinds {
		m = append(m, metricDef{"exec.op." + k + ".self_s", "s", "lower"})
		// The engine's profile counts no output rows for aggregate and
		// project, so those two would always read 0.
		if k != "aggregate" && k != "project" {
			m = append(m, metricDef{"exec.op." + k + ".rows_out", "count", "lower"})
		}
	}
	return append(m,
		metricDef{"maintenance.refresh_gen_s", "s", "lower"},
		metricDef{"maintenance.run_s", "s", "lower"},
		metricDef{"maintenance.dim_update_s", "s", "lower"},
		metricDef{"maintenance.delete_s", "s", "lower"},
		metricDef{"maintenance.insert_s", "s", "lower"},
		metricDef{"maintenance.inventory_s", "s", "lower"},
		metricDef{"maintenance.rows", "count", "higher"},
		metricDef{"driver.qr1_s", "s", "lower"},
		metricDef{"driver.qr2_s", "s", "lower"},
		metricDef{"driver.query_p50_ms", "ms", "lower"},
		metricDef{"driver.query_p95_ms", "ms", "lower"},
		metricDef{"driver.queries", "count", "higher"},
		metricDef{"obs.trace_overhead_frac", "ratio", "lower"},
		metricDef{"obs.uncovered_frac", "ratio", "lower"},
	)
}()

// layerValues computes every per-layer metric of a traced pass.
// untracedWall is the median wall time of the untraced passes.
func layerValues(rec *recorder, l *layerStats, p pass, untracedWall time.Duration) map[string]float64 {
	lat := make([]float64, len(p.latencies))
	for i, d := range p.latencies {
		lat[i] = millis(d)
	}
	v := map[string]float64{
		"datagen.generate_s":          seconds(rec.total("datagen.generate")),
		"datagen.dims_s":              seconds(rec.total("datagen.dims")),
		"datagen.facts_s":             seconds(rec.total("datagen.facts")),
		"datagen.returns_inventory_s": seconds(rec.total("datagen.returns_inventory")),
		"datagen.rows":                float64(l.datagenRows),
		"datagen.alloc_gb":            float64(l.datagenAlloc) / 1e9,
		"index.warm_hash_s":           seconds(rec.total("index.warm_hash")),
		"index.warm_bitmap_s":         seconds(rec.total("index.warm_bitmap")),
		"index.warm_alloc_gb":         float64(l.warmAlloc) / 1e9,
		"qgen.instantiate_s":          seconds(rec.total("qgen.instantiate")),
		"sql.parse_s":                 seconds(rec.total("sql.parse")),
		"plan.bind_s":                 seconds(l.bindSelf),
		"plan.plan_s":                 seconds(l.planSelf),
		"plan.cache_hits":             float64(l.planHits),
		"plan.cache_lookups":          float64(l.planHits + l.planMiss),
		"plan.qerror_p50":             quantile(l.qerrors, 0.50),
		"plan.qerror_p95":             quantile(l.qerrors, 0.95),
		"exec.query_s":                seconds(rec.total("exec.query")),
		"exec.cpu_s":                  seconds(l.exec.procCPU),
		"exec.gc_cpu_s":               l.exec.gcCPU,
		"exec.gc_cycles":              float64(l.exec.gcCycles),
		"exec.alloc_gb":               float64(l.exec.allocBytes) / 1e9,
		"exec.result_rows":            float64(l.resultRows),
		"exec.rows_scanned":           float64(l.reg.Counter("exec_rows_scanned").Value()),
		"exec.morsels":                float64(l.reg.Counter("exec_morsels").Value()),
		"exec.fact_scans_split":       float64(l.factScansSplit),
		"maintenance.refresh_gen_s":   seconds(rec.total("maintenance.generate_refresh")),
		"maintenance.run_s":           seconds(rec.total("maintenance.run")),
		"maintenance.dim_update_s":    seconds(l.dmOps["dim_update"]),
		"maintenance.delete_s":        seconds(l.dmOps["delete"]),
		"maintenance.insert_s":        seconds(l.dmOps["insert"]),
		"maintenance.inventory_s":     seconds(l.dmOps["inventory"]),
		"maintenance.rows":            float64(l.dmRows),
		"driver.qr1_s":                seconds(p.qr1),
		"driver.qr2_s":                seconds(p.qr2),
		"driver.query_p50_ms":         quantile(lat, 0.50),
		"driver.query_p95_ms":         quantile(lat, 0.95),
		"driver.queries":              float64(p.executions),
		"obs.trace_overhead_frac":     float64(p.wall)/float64(untracedWall) - 1,
		"obs.uncovered_frac":          rec.uncovered(),
	}
	// The runtime's CPU classes advance when a GC cycle ends, so a
	// pass too short to finish a cycle inside a query reads 0.
	v["exec.gc_frac"] = 0
	if l.exec.busyCPU > 0 {
		v["exec.gc_frac"] = l.exec.gcCPU / l.exec.busyCPU
	}
	for _, k := range opKinds {
		v["exec.op."+k+".self_s"] = seconds(l.ops[k].self)
		v["exec.op."+k+".rows_out"] = float64(l.ops[k].rowsOut)
	}
	return v
}
