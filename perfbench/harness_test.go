package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
)

func TestPercentileRefusesFewSamples(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, err := percentile(xs(39), 0.5); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p50 of 39 samples: err = %v, want errTooFewSamples", err)
	}
	if p, err := percentile(xs(40), 0.5); err != nil || p != 20 {
		t.Fatalf("p50 of 1..40 = %v, %v; want 20", p, err)
	}
	// p99 needs ten samples beyond it.
	if _, err := percentile(xs(999), 0.99); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	if p, err := percentile(xs(1000), 0.99); err != nil || p != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", p, err)
	}
	// The median is reported for any count; the tail is the 99th
	// percentile where it is supported and the median where it is not.
	if m := median(xs(3)); m != 2 {
		t.Fatalf("median of 1..3 = %v", m)
	}
	if tl := tail(xs(50)); tl != 25.5 {
		t.Fatalf("tail of 1..50 = %v, want the median 25.5", tl)
	}
	if tl := tail(xs(5000)); tl != 4950 {
		t.Fatalf("tail of 1..5000 = %v, want p99 = 4950", tl)
	}
}

func TestSameSeedSameRequestMix(t *testing.T) {
	draw := func(seed int64, conn, n int) []request {
		g := newMixGen(seed, conn)
		out := make([]request, n)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := draw(7, 0, 3000), draw(7, 0, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0, 3000)) {
		t.Fatal("seeds 7 and 8 gave the same request sequence")
	}
	// Fresh requests are unique within and across connections; repeats
	// name a request issued before on the same connection.
	other := draw(7, 1, 3000)
	seen := map[string]int{}
	var kinds [numKinds]int
	for conn, seq := range [][]request{a, other} {
		issued := map[string]bool{}
		for _, r := range seq {
			kinds[r.kind]++
			if r.kind == kindRepeat {
				if !issued[r.url] {
					t.Fatalf("repeat of a URL never issued on connection %d: %s", conn, r.url)
				}
				continue
			}
			if c, dup := seen[r.url]; dup {
				t.Fatalf("fresh URL issued twice (connections %d and %d): %s", c, conn, r.url)
			}
			seen[r.url] = conn
			issued[r.url] = true
			if r.url != r.shape.url() {
				t.Fatalf("URL %s does not render its shape", r.url)
			}
		}
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("no request of kind %d in 6000", k)
		}
	}
}

func TestSameSeedSameSolveAndOfflineInputs(t *testing.T) {
	x := solveDeep
	x.N = 96
	if !reflect.DeepEqual(mat.NewRandomSystem(x.N, 5), mat.NewRandomSystem(x.N, 5)) {
		t.Fatal("the same seed gave two different input systems")
	}
	if reflect.DeepEqual(mat.NewRandomSystem(x.N, 5), mat.NewRandomSystem(x.N, 6)) {
		t.Fatal("seeds 5 and 6 gave the same input system")
	}
	p1, err := newOfflinePlan(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := newOfflinePlan(5, 2)
	p3, _ := newOfflinePlan(6, 2)
	if !reflect.DeepEqual(p1.fleet, p2.fleet) || reflect.DeepEqual(p1.fleet, p3.fleet) {
		t.Fatal("fleet trace is not a function of the seed")
	}
}

func TestWorkersAndConnectionsWithinNproc(t *testing.T) {
	e := newEnv(1, time.Second, false, "")
	defer e.heap.stop()
	nproc := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	if procs > nproc {
		t.Fatalf("GOMAXPROCS %d exceeds nproc %d", procs, nproc)
	}
	if e.workers < 1 || e.workers > procs || e.workers > 2 {
		t.Fatalf("workers = %d with GOMAXPROCS %d", e.workers, procs)
	}
	// The serve workload drives one closed-loop goroutine per connection
	// through this client.
	tr := newClient(e.workers).Transport.(*http.Transport)
	if tr.MaxConnsPerHost != e.workers || tr.MaxIdleConnsPerHost != e.workers {
		t.Fatalf("client allows %d connections (%d idle), want %d", tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost, e.workers)
	}
	p, err := newOfflinePlan(1, e.workers)
	if err != nil {
		t.Fatal(err)
	}
	if p.workers > procs {
		t.Fatalf("campaign and fleet run %d workers with GOMAXPROCS %d", p.workers, procs)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var e2e, layers []metricSpec
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bj.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\nharness catalog %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v\nharness catalog %v", layers, perLayer)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, harness has %d", names, len(workloads))
	}
}

// TestOutputNamesEveryMetric runs the offline workload for a short window,
// untraced and traced, and checks that the last line of its output names
// every metric of BENCHMARK.json's matching list with its unit.
func TestOutputNamesEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the offline workload")
	}
	bj := readBenchmarkJSON(t)
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(dir)
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"--workload", "offline", "--seed", "3", "--seconds", "1", "--trace", trace}, &out, &errOut); code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("--trace %s: last line is not a result: %v", trace, err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Fatalf("--trace %s: result %+v", trace, res)
		}
		want := map[string]string{}
		if trace == "0" {
			for _, m := range bj.EndToEnd {
				want[m.Name] = m.Unit
			}
		} else {
			for _, m := range bj.PerLayer {
				want[m.Name] = m.Unit
			}
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for name, unit := range want {
			if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
				t.Errorf("--trace %s: metric %s = %+v, want unit %s", trace, name, got, unit)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}

func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/mpi.(*Proc).Send"}, "mpi"},
		{[]string{"runtime.memmove", "repro/internal/mpi.(*Proc).Recv"}, "mpi"},
		{[]string{"runtime.mallocgc", "repro/internal/mpi.(*Proc).Recv"}, "runtime_gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "runtime_sched"},
		{[]string{"strconv.AppendFloat", "encoding/json.floatEncoder.encode"}, "encoding_json"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).Write"}, "net_http"},
		{[]string{"repro/internal/mat.(*Dense).At", "repro/internal/ime.SolveParallel"}, "other"},
		{[]string{"main.runServe"}, "other"},
		{[]string{"runtime.memmove"}, "other"},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// TestProfileBucketsSumToProcessCPU profiles a busy loop and checks that
// the decoded profile accounts for the process CPU it ran.
func TestProfileBucketsSumToProcessCPU(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	var x float64
	for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			x += float64(i) * 1e-9
		}
	}
	if err := p.stop(); err != nil {
		t.Fatal(err)
	}
	if x == 0 || p.totalNS <= 0 {
		t.Fatalf("empty profile (x=%v)", x)
	}
	if r := p.totalNS / 1e9 / p.processS; r < 0.5 || r > 1.2 {
		t.Fatalf("profiled %.3fs of %.3fs process CPU", p.totalNS/1e9, p.processS)
	}
}

func TestPromSum(t *testing.T) {
	text := []byte(`# HELP mpi_messages_total m
# TYPE mpi_messages_total counter
mpi_messages_total 5.04273e+06
mpi_compute_seconds_total{rank="0"} 0.5
mpi_compute_seconds_total{rank="1"} 0.25
server_request_seconds_bucket{endpoint="recommend",le="0.001"} 3 # {trace_id="ab"} 0.0004
`)
	s, err := promSum(text)
	if err != nil {
		t.Fatal(err)
	}
	if s["mpi_messages_total"] != 5042730 || s["mpi_compute_seconds_total"] != 0.75 || s["server_request_seconds_bucket"] != 3 {
		t.Fatalf("promSum = %v", s)
	}
}

// TestSliceMediansFallsBackToOneSlice checks that a window too thin for
// a p99 in every slice is summarised as one slice instead of failing.
func TestSliceMediansFallsBackToOneSlice(t *testing.T) {
	st := &connStats{}
	for i := 0; i < 1500; i++ {
		st.lat = append(st.lat, float64(i%100))
		st.end = append(st.end, float32(i)/150) // 150 responses a second over 10 s
		st.bad = append(st.bad, false)
	}
	p50, p99, goodput, err := sliceMedians([]*connStats{st}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 49 || p99 != 98 || goodput != 150 {
		t.Fatalf("p50, p99, goodput = %v, %v, %v; want 49, 98, 150", p50, p99, goodput)
	}
	if _, _, _, err := sliceMedians([]*connStats{{lat: st.lat[:10], end: st.end[:10], bad: st.bad[:10]}}, 10*time.Second); err == nil {
		t.Fatal("10 responses gave a p99")
	}
}

// TestTrafficLawMatchesMonitoredSolves checks the traffic laws against
// small monitored solves of both algorithms, at shapes other than the
// workloads' own.
func TestTrafficLawMatchesMonitoredSolves(t *testing.T) {
	for _, x := range []core.Experiment{
		{Algorithm: perfmodel.ScaLAPACK, N: 1000, Ranks: 48, Placement: cluster.HalfLoadTwoSockets, Seed: 4},
		{Algorithm: perfmodel.IMe, N: 300, Ranks: 144, Placement: cluster.FullLoad, Seed: 4},
	} {
		cfg, err := cluster.NewConfig(x.Ranks, x.Placement, cluster.MarconiA3())
		if err != nil {
			t.Fatal(err)
		}
		want, err := trafficLaw(x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, _, err := core.RunMonitoredInstrumented(x, core.Instrumentation{MetricsW: &buf}); err != nil {
			t.Fatal(err)
		}
		s, err := promSum(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got := traffic{s["mpi_messages_total"], s["mpi_message_bytes_total"] / mpi.Float64Bytes}
		if got != want {
			t.Errorf("%v n=%d ranks=%d: traffic %+v, law %+v", x.Algorithm, x.N, x.Ranks, got, want)
		}
	}
}
