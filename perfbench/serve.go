package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/server"
	"repro/internal/sparse"
	"repro/internal/store"
	"repro/internal/surrogate"
)

// The serve workload: an in-process advisord (server.New with the
// surrogate, started from a paper-grid store with warm-from-store) on a
// loopback listener, driven in a closed loop by a few connections with
// the seeded request mix of mix.go.

const (
	// surrogateEnvelope is the relative duration and energy error the
	// surrogate's answers are held to against perfmodel
	// (internal/surrogate/surrogate_test.go, envelopeDuration/Energy).
	surrogateEnvelope = 0.02
	// Every sampleEvery-th response of a kind is kept for the post-run
	// checks against direct computations.
	denseSampleEvery  = 256
	cappedSampleEvery = 16
	sparseSampleEvery = 4
	// ringPollEvery is how many responses pass between reads of
	// /debug/requests in a traced phase: well under the ring's 256
	// recent requests, so none is evicted unread.
	ringPollEvery = 128
	// directCalls is how many direct model calls time each of
	// surrogate.predict_ns, perfmodel.run_us and sparse.model_us.
	directCalls = 2000
)

var sampleEvery = [numKinds]int{kindDense: denseSampleEvery, kindCapped: cappedSampleEvery, kindSparse: sparseSampleEvery}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// liveServer is one running advisord.
type liveServer struct {
	st   *store.Store
	svc  *server.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer opens the store, builds and warms the server, starts it on
// a loopback port and waits for its first 200.
func startServer(dir string, pred *surrogate.Predictor, client *http.Client) (*liveServer, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	svc := server.New(server.Config{Surrogate: pred, Store: st})
	svc.WarmFromStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	s := &liveServer{st: st, svc: svc, hs: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	body, code, err := get(client, s.base+"/v1/recommend?n=8640&ranks=144&placement=full-load")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("first request: status %d: %s", code, body)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := s.st.Close(); err == nil {
		err = cerr
	}
	return err
}

func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// paperGridFixture fills dir with the paper-grid stage's 72 cells: the
// store advisord is started from.
func paperGridFixture(dir string, workers int) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	paper := campaign.Paper()
	c := campaign.Campaign{Name: paper.Name, Stages: paper.Stages[:1]}
	if c.Stages[0].Name != "paper-grid" {
		st.Close()
		return fmt.Errorf("first paper stage is %q, want paper-grid", c.Stages[0].Name)
	}
	if _, err := campaign.Run(c, st, campaign.RunOptions{Workers: workers}); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// sample is one response kept for a post-run check.
type sample struct {
	shape shape
	body  []byte
}

// connStats is one connection's share of a phase.
type connStats struct {
	lat     []float64 // ms, every response
	end     []float32 // seconds from the phase start to each response
	bad     []bool    // whether each response failed
	ids     []string  // trace IDs, aligned with lat (traced phases)
	failed  int
	samples []sample
}

// servePhase drives the server for one window and returns each
// connection's results. ring, when non-nil, receives the server's request
// digests as they are read from /debug/requests.
func servePhase(e *env, base string, client *http.Client, gens []*mixGen, hashes [][]uint64, r *report, ring *digestCollector) []*connStats {
	stats := make([]*connStats, len(gens))
	start := time.Now()
	deadline := start.Add(e.window)
	var wg sync.WaitGroup
	for c := range gens {
		stats[c] = &connStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			driveConn(c, base, client, gens[c], hashes[c], start, deadline, stats[c], r, ring)
		}(c)
	}
	wg.Wait()
	return stats
}

func driveConn(c int, base string, client *http.Client, gen *mixGen, hashes []uint64, start, deadline time.Time, st *connStats, r *report, ring *digestCollector) {
	var counts [numKinds]int
	for time.Now().Before(deadline) {
		req := gen.next()
		id := fmt.Sprintf("%016x%016x", c+1, gen.drawn)
		hreq, err := http.NewRequest(http.MethodGet, base+req.url, nil)
		if err != nil {
			panic(err) // the generator renders only valid URLs
		}
		hreq.Header.Set("traceparent", "00-"+id+"-0000000000000001-01")
		t := time.Now()
		resp, err := client.Do(hreq)
		var body []byte
		code := 0
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
		}
		now := time.Now()
		st.lat = append(st.lat, ms(now.Sub(t)))
		st.end = append(st.end, float32(now.Sub(start).Seconds()))
		if ring != nil {
			st.ids = append(st.ids, id)
		}
		ok := err == nil && code == http.StatusOK
		decoded := ok && decodes(req, body)
		var same bool
		if decoded {
			h := fnv.New64a()
			h.Write(body)
			if req.kind == kindRepeat {
				same = hashes[req.origin] == h.Sum64()
			} else {
				hashes[req.origin] = h.Sum64()
				same = true
			}
		}
		r.verify("serve.status_200", ok)
		if ok {
			r.verify("serve.decodes", decoded)
		}
		if decoded && req.kind == kindRepeat {
			r.verify("serve.repeat_same_bytes", same)
		}
		st.bad = append(st.bad, !decoded || !same)
		if !decoded || !same {
			st.failed++
		} else if req.kind != kindRepeat {
			counts[req.kind]++
			if counts[req.kind]%sampleEvery[req.kind] == 0 {
				st.samples = append(st.samples, sample{shape: req.shape, body: body})
			}
		}
		if ring != nil {
			ring.tick(client, base)
		}
	}
}

// decodes reports whether body is the response shape the request expects.
func decodes(req request, body []byte) bool {
	switch req.shape.endpoint {
	case "sparse":
		var v server.SparseRecommendResponse
		return json.Unmarshal(body, &v) == nil && v.Best != "" && v.CPU.DurationS > 0 && v.Accel.DurationS > 0
	case "predict":
		var v server.PredictResponse
		return json.Unmarshal(body, &v) == nil && v.DurationS > 0 && v.TotalJ > 0
	default:
		var v server.RecommendResponse
		return json.Unmarshal(body, &v) == nil && v.Best != "" && v.IMe.DurationS > 0 && v.ScaLAPACK.DurationS > 0
	}
}

// digestCollector reads the server's request ring during a traced phase.
type digestCollector struct {
	mu      sync.Mutex
	n       atomic.Int64
	digests map[string]server.RequestDigest
	err     error
}

// tick counts one response and reads the ring every ringPollEvery.
func (d *digestCollector) tick(client *http.Client, base string) {
	if d.n.Add(1)%ringPollEvery == 0 {
		d.poll(client, base)
	}
}

func (d *digestCollector) poll(client *http.Client, base string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	body, code, err := get(client, base+"/debug/requests")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/debug/requests: status %d", code)
	}
	var snap server.RingSnapshot
	if err == nil {
		err = json.Unmarshal(body, &snap)
	}
	if err != nil {
		d.err = err
		return
	}
	for _, dg := range snap.Recent {
		d.digests[dg.ID] = dg
	}
}

func runServe(e *env) (*report, error) {
	r := newReport()
	conns := e.workers
	client := newClient(conns)
	defer client.CloseIdleConnections()

	fixture := filepath.Join(e.tmp, "store")
	if err := paperGridFixture(fixture, e.workers); err != nil {
		return nil, fmt.Errorf("paper-grid store: %w", err)
	}
	// Set-up: the surrogate table loads once per process; store open,
	// server construction, warm-from-store, listen and the first 200 are
	// timed several times.
	t := time.Now()
	pred, err := surrogate.Default()
	if err != nil {
		return nil, err
	}
	load := time.Since(t).Seconds()
	var srv *liveServer
	var setups []float64
	for i := 0; i < 2*setupReps+1; i++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
			client.CloseIdleConnections()
		}
		t := time.Now()
		if srv, err = startServer(fixture, pred, client); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer srv.close()
	r.set("setup_s", load+median(setups))

	gens := make([]*mixGen, conns)
	hashes := make([][]uint64, conns)
	for c := range gens {
		gens[c] = newMixGen(e.seed, c)
		hashes[c] = make([]uint64, historyLen)
	}

	// Untraced phase.
	bytes0, objs0 := allocCounters()
	stats := servePhase(e, srv.base, client, gens, hashes, r, nil)
	r.set("peak_heap_mb", e.heap.stop())
	bytes1, objs1 := allocCounters()
	lat := tally(r, stats)
	p50, p99, goodput, err := sliceMedians(stats, e.window)
	if err != nil {
		return nil, err
	}
	r.set("latency_p50_ms", p50)
	r.set("latency_p99_ms", p99)
	r.set("goodput_rps", goodput)
	samples := collectSamples(stats)

	if e.traced {
		ops := float64(len(lat))
		r.set("go.alloc_kb_per_op", float64(bytes1-bytes0)/1e3/ops)
		r.set("go.mallocs_per_op", float64(objs1-objs0)/ops)
		tstats, err := serveTraced(e, r, srv, client, gens, hashes, lat)
		if err != nil {
			return nil, err
		}
		samples = append(samples, collectSamples(tstats)...)
		if err := directCallTimes(r, pred, samples); err != nil {
			return nil, err
		}
	}
	checkSamples(r, samples)
	return r, nil
}

// tally adds a phase's responses to the report and returns their
// latencies.
func tally(r *report, stats []*connStats) []float64 {
	var lat []float64
	for _, s := range stats {
		lat = append(lat, s.lat...)
		r.attempted += len(s.lat)
		r.failed += s.failed
	}
	return lat
}

// serveSlices is how many equal slices a phase's window is cut into. The
// end-to-end figures are the medians of the slices' figures, so a burst
// of interference from outside the process moves at most a few slices.
const serveSlices = 10

// sliceMedians returns the medians over the window's slices of each
// slice's p50 and p99 latency and goodput (successful responses per
// second). A response belongs to the slice it completed in. If a slice
// has too few responses for its p99, the window is taken as one slice.
func sliceMedians(stats []*connStats, window time.Duration) (p50, p99, goodput float64, err error) {
	for _, slices := range []int{serveSlices, 1} {
		if p50, p99, goodput, err = sliced(stats, window, slices); err == nil {
			break
		}
	}
	return p50, p99, goodput, err
}

func sliced(stats []*connStats, window time.Duration, slices int) (p50, p99, goodput float64, err error) {
	width := window.Seconds() / float64(slices)
	lats := make([][]float64, slices)
	oks := make([]float64, slices)
	for _, s := range stats {
		for i, end := range s.end {
			k := min(int(float64(end)/width), slices-1)
			lats[k] = append(lats[k], s.lat[i])
			if !s.bad[i] {
				oks[k]++
			}
		}
	}
	var p50s, p99s, goodputs []float64
	for k := range lats {
		a, err := percentile(lats[k], 0.5)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("slice %d of %d: %w", k, slices, err)
		}
		b, err := percentile(lats[k], 0.99)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("slice %d of %d: %w", k, slices, err)
		}
		p50s, p99s, goodputs = append(p50s, a), append(p99s, b), append(goodputs, oks[k]/width)
	}
	return median(p50s), median(p99s), median(goodputs), nil
}

func collectSamples(stats []*connStats) []sample {
	var out []sample
	for _, s := range stats {
		out = append(out, s.samples...)
	}
	return out
}

// serveTraced runs the traced phase: the same mix under a CPU profile,
// with the server's request digests read from /debug/requests and its
// counters from /metrics.
func serveTraced(e *env, r *report, srv *liveServer, client *http.Client, gens []*mixGen, hashes [][]uint64, untraced []float64) ([]*connStats, error) {
	m0, code, err := get(client, srv.base+"/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d, %v", code, err)
	}
	ring := &digestCollector{digests: make(map[string]server.RequestDigest)}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	stats := servePhase(e, srv.base, client, gens, hashes, r, ring)
	if err := prof.stop(); err != nil {
		return nil, err
	}
	ring.poll(client, srv.base)
	if ring.err != nil {
		return nil, ring.err
	}
	m1, code, err := get(client, srv.base+"/metrics")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d, %v", code, err)
	}
	lat := tally(r, stats)
	prof.report(r, len(lat))
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	u50, err := percentile(untraced, 0.5)
	if err != nil {
		return nil, err
	}
	r.set("trace.overhead_ms", p50-u50)

	// Stage self times. Every stage span is a child of the request span;
	// by construction of the pipeline admission-queue and compute run
	// inside coalesce, and marshal inside compute, so their self times
	// are the differences.
	var n float64
	var outside, request, unattributed float64
	self := map[string]float64{}
	for _, s := range stats {
		for i, id := range s.ids {
			dg, ok := ring.digests[id]
			if !ok {
				continue
			}
			st := map[string]float64{}
			for _, sp := range dg.Stages {
				st[sp.Name] += sp.DurUS
			}
			n++
			outside += s.lat[i]*1e3 - dg.DurationUS
			request += dg.DurationUS
			self["parse"] += st["parse"]
			self["cache_lookup"] += st["cache-lookup"]
			self["surrogate"] += st["surrogate"]
			self["coalesce"] += st["coalesce"] - st["admission-queue"] - st["compute"]
			self["admission_wait"] += st["admission-queue"]
			self["compute"] += st["compute"] - st["marshal"]
			self["marshal"] += st["marshal"]
			unattributed += dg.DurationUS - st["parse"] - st["cache-lookup"] - st["surrogate"] - st["coalesce"]
		}
	}
	// The ring is read often enough that every traced request's digest is
	// seen; a shortfall means the stage figures cover a biased subset.
	r.verify("trace.digests_matched", n >= 0.99*float64(len(lat)))
	if n == 0 {
		return nil, errors.New("no request digest matched a response")
	}
	r.set("http.outside_handler_us", outside/n)
	r.set("server.request_us", request/n)
	var sum float64
	for k, v := range self {
		r.set("server."+k+"_us", v/n)
		sum += v
	}
	r.set("server.unattributed_us", unattributed/n)
	recon := sum / request
	r.set("recon.server_stages", recon)
	r.verify("recon.server_stages_in_band", recon >= bandServerStages[0] && recon <= bandServerStages[1])

	c0, err := promSum(m0)
	if err != nil {
		return nil, err
	}
	c1, err := promSum(m1)
	if err != nil {
		return nil, err
	}
	d := func(name string) float64 { return c1[name] - c0[name] }
	hits, misses := d("server_cache_hits_total"), d("server_cache_misses_total")
	r.set("server.cache_hit_ratio", hits/(hits+misses))
	r.set("server.surrogate_ratio", d("server_surrogate_total")/misses)
	r.set("server.coalesced", d("server_coalesced_total"))
	r.set("server.shed", d("server_shed_total"))
	return stats, nil
}

// directCallTimes times the model layers directly on the run's own
// sampled request shapes.
func directCallTimes(r *report, pred *surrogate.Predictor, samples []sample) error {
	var dense, capped, sparseShapes []shape
	for _, s := range samples {
		switch {
		case s.shape.endpoint == "sparse":
			sparseShapes = append(sparseShapes, s.shape)
		case s.shape.capW > 0:
			capped = append(capped, s.shape)
		default:
			dense = append(dense, s.shape)
		}
	}
	if len(dense) == 0 || len(capped) == 0 || len(sparseShapes) == 0 {
		return errors.New("too few sampled shapes for the direct calls")
	}
	cfgs := func(shapes []shape, spec *cluster.MachineSpec) ([]cluster.Config, error) {
		out := make([]cluster.Config, len(shapes))
		for i, s := range shapes {
			cfg, err := cluster.NewConfig(s.ranks, s.placement, spec)
			if err != nil {
				return nil, err
			}
			out[i] = cfg
		}
		return out, nil
	}
	dc, err := cfgs(dense, cluster.MarconiA3())
	if err != nil {
		return err
	}
	t := time.Now()
	for i := 0; i < directCalls; i++ {
		s := dense[i%len(dense)]
		for _, alg := range perfmodel.Algorithms() {
			pred.Predict(alg, s.n, dc[i%len(dense)], s.params())
		}
	}
	r.set("surrogate.predict_ns", float64(time.Since(t).Nanoseconds())/float64(2*directCalls))

	cc, err := cfgs(capped, cluster.MarconiA3())
	if err != nil {
		return err
	}
	calls := directCalls / 10 // an exact evaluation costs about a millisecond
	t = time.Now()
	for i := 0; i < calls; i++ {
		s := capped[i%len(capped)]
		if _, err := perfmodel.Run(perfmodel.Algorithms()[i%2], s.n, cc[i%len(capped)], s.params()); err != nil {
			return err
		}
	}
	r.set("perfmodel.run_us", us(time.Since(t))/float64(calls))

	sc, err := cfgs(sparseShapes, cluster.MarconiA3Accel())
	if err != nil {
		return err
	}
	t = time.Now()
	for i := 0; i < directCalls; i++ {
		s := sparseShapes[i%len(sparseShapes)]
		if _, err := sparse.Model(s.salg, s.spec, sc[i%len(sparseShapes)], cluster.Devices()[i%2], perfmodel.Params{}); err != nil {
			return err
		}
	}
	r.set("sparse.model_us", us(time.Since(t))/float64(directCalls))
	return nil
}

// checkSamples compares each kept response with a computation made apart
// from the serving path: surrogate answers with a direct perfmodel.Run
// (within the surrogate's envelope), capped and sparse verdicts with
// direct core.Recommend / core.RecommendSparse calls (exactly).
func checkSamples(r *report, samples []sample) {
	for _, s := range samples {
		var ok bool
		var name string
		switch {
		case s.shape.endpoint == "sparse":
			name, ok = "serve.sparse_equals_recommendsparse", sparseMatches(s)
		case s.shape.capW > 0:
			name, ok = "serve.capped_equals_recommend", cappedMatches(s)
		default:
			name, ok = "serve.surrogate_within_envelope", denseWithinEnvelope(s)
		}
		if !r.verify(name, ok) {
			r.failed++
		}
	}
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

func cellWithin(c server.CellResult, s shape, alg perfmodel.Algorithm) bool {
	cfg, err := cluster.NewConfig(s.ranks, s.placement, cluster.MarconiA3())
	if err != nil {
		return false
	}
	want, err := perfmodel.Run(alg, s.n, cfg, s.params())
	return err == nil && c.Algorithm == alg.String() && c.N == s.n && c.Ranks == s.ranks &&
		relErr(c.DurationS, want.DurationS) <= surrogateEnvelope && relErr(c.TotalJ, want.TotalJ) <= surrogateEnvelope
}

func denseWithinEnvelope(s sample) bool {
	if s.shape.endpoint == "predict" {
		var v server.PredictResponse
		return json.Unmarshal(s.body, &v) == nil && cellWithin(v.CellResult, s.shape, s.shape.alg)
	}
	var v server.RecommendResponse
	return json.Unmarshal(s.body, &v) == nil &&
		cellWithin(v.IMe, s.shape, perfmodel.IMe) && cellWithin(v.ScaLAPACK, s.shape, perfmodel.ScaLAPACK)
}

func cappedMatches(s sample) bool {
	var v server.RecommendResponse
	if json.Unmarshal(s.body, &v) != nil {
		return false
	}
	rec, err := core.Recommend(s.shape.n, s.shape.ranks, s.shape.placement, s.shape.objective, s.shape.params())
	return err == nil && v.Best == rec.Best.String() && v.MarginPct == 100*rec.Margin &&
		v.IMe.DurationS == rec.IMe.DurationS && v.IMe.TotalJ == rec.IMe.TotalJ &&
		v.ScaLAPACK.DurationS == rec.ScaLAPACK.DurationS && v.ScaLAPACK.TotalJ == rec.ScaLAPACK.TotalJ
}

func sparseMatches(s sample) bool {
	var v server.SparseRecommendResponse
	if json.Unmarshal(s.body, &v) != nil {
		return false
	}
	rec, err := core.RecommendSparse(s.shape.salg, s.shape.spec, s.shape.ranks, s.shape.placement, s.shape.objective, perfmodel.Params{})
	return err == nil && v.Best == rec.Best.String() && v.MarginPct == 100*rec.Margin &&
		v.CPU.DurationS == rec.CPU.DurationS && v.CPU.TotalJ == rec.CPU.TotalJ &&
		v.Accel.DurationS == rec.Accel.DurationS && v.Accel.TotalJ == rec.Accel.TotalJ
}
