package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metricSpec names one reported metric and its unit. The two catalogs
// below are the benchmark's metric surface; BENCHMARK.json lists the same
// names and units (pinned by TestCatalogMatchesBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them in an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"peak_heap_mb", "MB"},
}

// profileBuckets are the packages a CPU profile sample's self time is
// charged to (see bucketOf).
var profileBuckets = []string{
	"kernel", "mpi", "rapl", "monitor", "ime", "scalapack", "perfmodel",
	"store", "campaign", "sched", "server", "surrogate", "net_http",
	"encoding_json", "runtime_gc", "runtime_sched", "other",
}

// campaignStages are the paper-campaign stages the offline workload runs:
// every stage but resilience (see README.md, "Known faults").
var campaignStages = []string{
	"paper-grid", "overlap-ablation", "power-cap-110", "power-cap-130",
	"repetitions", "monitored-reference", "sparse-grid",
}

// perLayer are the metrics of single layers, reported by a traced run.
// Every workload reports every one; a layer the workload does not
// exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	m := []metricSpec{
		// serve
		{"http.outside_handler_us", "us"},
		{"server.request_us", "us"},
		{"server.parse_us", "us"},
		{"server.cache_lookup_us", "us"},
		{"server.surrogate_us", "us"},
		{"server.coalesce_us", "us"},
		{"server.admission_wait_us", "us"},
		{"server.compute_us", "us"},
		{"server.marshal_us", "us"},
		{"server.unattributed_us", "us"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.surrogate_ratio", "ratio"},
		{"server.coalesced", "count"},
		{"server.shed", "count"},
		{"surrogate.predict_ns", "ns"},
		{"sparse.model_us", "us"},
		{"perfmodel.run_us", "us"},
		// solve-wide, solve-deep
		{"mat.system_ms", "ms"},
		{"mpi.world_setup_us", "us"},
		{"mpi.messages", "count"},
		{"mpi.message_bytes", "B"},
		{"mpi.barriers", "count"},
		{"mpi.collectives", "count"},
		{"mpi.compute_vs", "vs"},
		{"mpi.wait_vs", "vs"},
		{"solver.flops", "flop"},
		{"solver.levels", "count"},
		{"kernel.tiles", "count"},
		{"kernel.parallel_for", "count"},
		{"kernel.gflops", "GFLOP/s"},
		{"rapl.energy_spread_ppm", "ppm"},
	}
	// offline
	for _, s := range campaignStages {
		m = append(m, metricSpec{"campaign." + s + "_ms", "ms"})
	}
	m = append(m,
		metricSpec{"campaign.warm_ms", "ms"},
		metricSpec{"campaign.cells_computed", "count"},
		metricSpec{"campaign.cells_hit", "count"},
		metricSpec{"store.open_ms", "ms"},
		metricSpec{"store.get_us", "us"},
		metricSpec{"store.records", "count"},
		metricSpec{"store.bytes", "B"},
		metricSpec{"sched.simulate_ms", "ms"},
		metricSpec{"sched.store_hits", "count"},
		metricSpec{"sched.store_computed", "count"},
	)
	// every workload
	for _, b := range profileBuckets {
		m = append(m, metricSpec{b + ".cpu_us_per_op", "us"})
	}
	m = append(m,
		metricSpec{"go.alloc_kb_per_op", "kB"},
		metricSpec{"go.mallocs_per_op", "count"},
		metricSpec{"trace.overhead_ms", "ms"},
		metricSpec{"recon.server_stages", "ratio"},
		metricSpec{"recon.offline_parts", "ratio"},
		metricSpec{"recon.profile_cpu", "ratio"},
	)
	return m
}

// Reconciliation bands: how far a sum of layers may fall from the whole
// it should add up to (as a ratio sum/whole). README.md gives the reason
// for each width.
var (
	bandServerStages = [2]float64{0.70, 1.00}
	bandOfflineParts = [2]float64{0.95, 1.01}
	bandProfileCPU   = [2]float64{0.90, 1.05}
)

// check is one output check and how many operations it covered.
type check struct {
	name        string
	pass, total int
}

// report is one run's outcome. verify is safe for concurrent use; the
// other methods are called from one goroutine.
type report struct {
	attempted, failed int
	mu                sync.Mutex // guards checks
	checks            []*check
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

// check returns the named check, creating it on first use. The caller
// holds r.mu.
func (r *report) check(name string) *check {
	for _, c := range r.checks {
		if c.name == name {
			return c
		}
	}
	c := &check{name: name}
	r.checks = append(r.checks, c)
	return c
}

// verify records one operation's outcome under the named check and
// returns ok.
func (r *report) verify(name string, ok bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.check(name)
	c.total++
	if ok {
		c.pass++
	}
	return ok
}

// set records a metric value; the name must be in a catalog.
func (r *report) set(name string, v float64) {
	if unitOf(name) == "" {
		panic("perfbench: metric " + name + " is in no catalog")
	}
	r.values[name] = v
}

func unitOf(name string) string {
	for _, cat := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range cat {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// write prints the checks and metrics as text, then the result as one
// JSON line. traced selects the per-layer catalog; an untraced run must
// have set every end-to-end metric.
func (r *report) write(w io.Writer, traced bool) error {
	correct := r.failed == 0
	for _, c := range r.checks {
		verdict := "ok"
		if c.pass != c.total {
			verdict = "FAILED"
			correct = false
		}
		fmt.Fprintf(w, "check %-34s %d/%d %s\n", c.name, c.pass, c.total, verdict)
	}
	cat := endToEnd
	if traced {
		cat = perLayer
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(cat))}
	names := make([]string, 0, len(cat))
	for _, m := range cat {
		v, ok := r.values[m.name]
		if !ok && !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-34s %.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
