package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/store"
)

// The offline workload. One pass, on a fresh store: the cold paper
// campaign without its resilience stage, a warm replay on the reopened
// store (all hits), then a fleet trace priced from that store.

const (
	fleetJobs    = 240
	fleetNodes   = 1024
	fleetBudgetW = 11000
	// storeSamples is how many stored cells each pass compares with a
	// direct perfmodel.Run.
	storeSamples = 8
)

// offlinePlan is the resolved pass: the campaign and the fleet trace.
type offlinePlan struct {
	camp    campaign.Campaign
	stages  []campaign.Campaign // one single-stage campaign per stage, for per-stage timing
	fleet   sched.Workload
	workers int
}

func newOfflinePlan(seed int64, workers int) (offlinePlan, error) {
	paper := campaign.Paper()
	p := offlinePlan{camp: campaign.Campaign{Name: paper.Name, Description: paper.Description}, workers: workers}
	for _, s := range paper.Stages {
		if s.Name == "resilience" {
			continue
		}
		p.camp.Stages = append(p.camp.Stages, s)
		p.stages = append(p.stages, campaign.Campaign{Name: paper.Name, Stages: []campaign.Stage{s}})
	}
	if len(p.camp.Stages) != len(campaignStages) {
		return p, fmt.Errorf("paper campaign has stages %v, want %v plus resilience", stageNames(paper), campaignStages)
	}
	for i, s := range p.camp.Stages {
		if s.Name != campaignStages[i] {
			return p, fmt.Errorf("paper campaign stage %d is %q, want %q", i, s.Name, campaignStages[i])
		}
	}
	p.fleet = sched.Synthetic(seed, fleetJobs)
	return p, nil
}

func stageNames(c campaign.Campaign) []string {
	var names []string
	for _, s := range c.Stages {
		names = append(names, s.Name)
	}
	return names
}

// passTimes are one pass's timed parts.
type passTimes struct {
	total, open, warm, fleet time.Duration
	stage                    []time.Duration // traced passes only
	cold0, warm0             campaign.Summary
	out                      *sched.Outcome
	st                       *store.Store
}

// pass runs one offline pass in dir. A traced pass runs the cold campaign
// one stage at a time so that each stage is timed on its own.
func (p offlinePlan) pass(dir string, traced bool) (passTimes, error) {
	var pt passTimes
	opt := campaign.RunOptions{Workers: p.workers}
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return pt, err
	}
	if traced {
		for _, c := range p.stages {
			ts := time.Now()
			sum, err := campaign.Run(c, st, opt)
			if err != nil {
				st.Close()
				return pt, err
			}
			pt.stage = append(pt.stage, time.Since(ts))
			pt.cold0.Stages = append(pt.cold0.Stages, sum.Stages...)
			pt.cold0.ComputedTotal += sum.ComputedTotal
			pt.cold0.HitsTotal += sum.HitsTotal
		}
	} else if pt.cold0, err = campaign.Run(p.camp, st, opt); err != nil {
		st.Close()
		return pt, err
	}
	t1 := time.Now()
	if err := st.Close(); err != nil {
		return pt, err
	}
	st, err = store.Open(dir)
	if err != nil {
		return pt, err
	}
	t2 := time.Now()
	if pt.warm0, err = campaign.Run(p.camp, st, opt); err != nil {
		st.Close()
		return pt, err
	}
	t3 := time.Now()
	pt.out, err = sched.Simulate(sched.Config{Nodes: fleetNodes, PowerBudgetW: fleetBudgetW, Store: st, Workers: p.workers}, p.fleet)
	if err != nil {
		st.Close()
		return pt, err
	}
	t4 := time.Now()
	pt.total, pt.open, pt.warm, pt.fleet = t4.Sub(t0), t2.Sub(t1), t3.Sub(t2), t4.Sub(t3)
	pt.st = st
	return pt, nil
}

func runOffline(e *env) (*report, error) {
	r := newReport()
	// Set-up: one untimed pass leaves a finished store behind (and warms
	// the process up); then resolving the campaign plan and fleet trace
	// and opening that store, what a resumed campaign pays before its
	// first cell, is timed several times.
	plan, err := newOfflinePlan(e.seed, e.workers)
	if err != nil {
		return nil, err
	}
	finished := filepath.Join(e.tmp, "store-finished")
	pt, err := plan.pass(finished, false)
	if err != nil {
		return nil, err
	}
	if err := pt.st.Close(); err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < 3*setupReps; i++ {
		t := time.Now()
		if plan, err = newOfflinePlan(e.seed, e.workers); err != nil {
			return nil, err
		}
		st, err := store.Open(finished)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
	r.set("setup_s", median(setups))
	rng := rand.New(rand.NewSource(e.seed))

	passes := 0
	// onePass runs, checks and removes one pass's store.
	onePass := func(traced bool) (passTimes, error) {
		dir := filepath.Join(e.tmp, fmt.Sprintf("store-%d", passes))
		passes++
		pt, err := plan.pass(dir, traced)
		r.attempted++
		if err != nil {
			r.verify("offline.pass_completes", false)
			r.failed++
			os.RemoveAll(dir)
			return pt, nil
		}
		if !checkPass(r, plan, pt, rng) {
			r.failed++
		}
		if err := pt.st.Close(); err != nil {
			return pt, err
		}
		return pt, os.RemoveAll(dir)
	}

	bytes0, objs0 := allocCounters()
	var lat []float64
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < e.window {
		pt, err := onePass(false)
		if err != nil {
			return nil, err
		}
		lat = append(lat, ms(pt.total))
	}
	r.set("peak_heap_mb", e.heap.stop())
	bytes1, objs1 := allocCounters()
	r.set("latency_p50_ms", median(lat))
	r.set("latency_p99_ms", tail(lat))
	r.set("goodput_rps", float64(len(lat)-r.failed)/(sum(lat)/1e3))
	if !e.traced {
		return r, nil
	}
	ops := float64(len(lat))
	r.set("go.alloc_kb_per_op", float64(bytes1-bytes0)/1e3/ops)
	r.set("go.mallocs_per_op", float64(objs1-objs0)/ops)

	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	var tl []float64
	var stageMS = make([][]float64, len(campaignStages))
	var warmMS, openMS, fleetMS, parts []float64
	var last passTimes
	start = time.Now()
	for len(tl) == 0 || time.Since(start) < e.window {
		pt, err := onePass(true)
		if err != nil {
			return nil, err
		}
		if pt.out == nil {
			continue
		}
		tl = append(tl, ms(pt.total))
		var sum time.Duration
		for i, d := range pt.stage {
			stageMS[i] = append(stageMS[i], ms(d))
			sum += d
		}
		warmMS = append(warmMS, ms(pt.warm))
		openMS = append(openMS, ms(pt.open))
		fleetMS = append(fleetMS, ms(pt.fleet))
		parts = append(parts, (sum+pt.warm+pt.fleet).Seconds()/pt.total.Seconds())
		last = pt
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	prof.report(r, len(tl))
	r.set("trace.overhead_ms", median(tl)-median(lat))
	for i, s := range campaignStages {
		r.set("campaign."+s+"_ms", mean(stageMS[i]))
	}
	r.set("campaign.warm_ms", mean(warmMS))
	r.set("store.open_ms", mean(openMS))
	r.set("sched.simulate_ms", mean(fleetMS))
	recon := mean(parts)
	r.set("recon.offline_parts", recon)
	r.verify("recon.offline_parts_in_band", recon >= bandOfflineParts[0] && recon <= bandOfflineParts[1])
	if last.out == nil {
		return r, nil
	}
	r.set("campaign.cells_computed", float64(last.cold0.ComputedTotal))
	r.set("campaign.cells_hit", float64(last.warm0.HitsTotal))
	r.set("sched.store_hits", float64(last.out.StoreHits))
	r.set("sched.store_computed", float64(last.out.StoreComputed))

	// Store layer: the finished store's size and direct Gets of every key.
	st, err := store.Open(finished)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r.set("store.records", float64(st.Len()))
	fi, err := os.Stat(filepath.Join(finished, "records.ndjson"))
	if err != nil {
		return nil, err
	}
	r.set("store.bytes", float64(fi.Size()))
	keys := st.Keys()
	t := time.Now()
	for _, k := range keys {
		if _, ok, err := st.Get(k); err != nil || !ok {
			return nil, fmt.Errorf("store get %s: ok=%v err=%v", k, ok, err)
		}
	}
	r.set("store.get_us", us(time.Since(t))/float64(len(keys)))
	return r, nil
}

// checkPass applies the offline output checks to one pass; it returns
// false if any failed.
func checkPass(r *report, p offlinePlan, pt passTimes, rng *rand.Rand) bool {
	ok := true
	exact := len(pt.cold0.Stages) == len(p.camp.Stages)
	for i, s := range pt.cold0.Stages {
		exact = exact && s.Name == p.camp.Stages[i].Name && s.Computed == p.camp.Stages[i].Cells && s.Hits == 0
	}
	ok = r.verify("offline.cold_computes_advertised_cells", exact) && ok
	ok = r.verify("offline.warm_computes_nothing", pt.warm0.ComputedTotal == 0 && pt.warm0.HitsTotal == p.camp.Cells()) && ok
	ok = r.verify("offline.stored_cells_equal_perfmodel", storedCellsExact(pt.st, rng)) && ok
	ok = r.verify("offline.paper_shapes", paperShapes(pt.st)) && ok

	rep := pt.out.Report
	ok = r.verify("fleet.peak_power_within_budget", rep.PeakPowerW <= fleetBudgetW) && ok
	var tenantJ float64
	for _, t := range rep.Tenants {
		tenantJ += t.EnergyJ
	}
	ok = r.verify("fleet.tenant_energy_sums_to_total", math.Abs(tenantJ-rep.TotalEnergyJ) <= 1e-9*rep.TotalEnergyJ) && ok
	done := len(rep.Jobs) == fleetJobs
	for _, j := range rep.Jobs {
		done = done && j.Status == "done"
	}
	ok = r.verify("fleet.all_jobs_finish", done) && ok
	ok = r.verify("fleet.store_computed_zero", pt.out.StoreComputed == 0) && ok
	return ok
}

// gridParams are the model parameters of the grid stages whose cells are
// sampled: the paper grid, its overlap ablation and the two power caps.
var gridParams = []perfmodel.Params{
	{Overlap: true},
	{},
	{Overlap: true, PowerCapW: 110},
	{Overlap: true, PowerCapW: 130},
}

// storedCellsExact compares a seeded sample of stored grid cells with a
// direct perfmodel.Run of the same shape, bit for bit.
func storedCellsExact(st *store.Store, rng *rand.Rand) bool {
	dims, rankCounts, pls := cluster.PaperMatrixDims(), cluster.PaperRankCounts(), cluster.Placements()
	for i := 0; i < storeSamples; i++ {
		x := core.Experiment{
			Algorithm: perfmodel.Algorithms()[rng.Intn(len(perfmodel.Algorithms()))],
			N:         dims[rng.Intn(len(dims))],
			Ranks:     rankCounts[rng.Intn(len(rankCounts))],
			Placement: pls[rng.Intn(len(pls))],
		}
		prm := gridParams[rng.Intn(len(gridParams))]
		got, ok, err := core.LookupAnalyticCell(st, x, prm)
		if err != nil || !ok {
			return false
		}
		cfg, err := cluster.NewConfig(x.Ranks, x.Placement, cluster.MarconiA3())
		if err != nil {
			return false
		}
		want, err := perfmodel.Run(x.Algorithm, x.N, cfg, prm)
		if err != nil || got.DurationS != want.DurationS || got.TotalJ != want.TotalJ {
			return false
		}
		for d, j := range want.EnergyJ {
			if got.EnergyJ[d] != j {
				return false
			}
		}
	}
	return true
}

// paperShapes checks the stored paper grid for the paper's findings: full
// load uses less energy than either half-load placement for every cell
// (Fig. 3), and IMe is faster than ScaLAPACK at 1296 ranks for n = 8640
// and 17280 (Fig. 5).
func paperShapes(st *store.Store) bool {
	sw, err := campaign.SweepFromStore(st, perfmodel.Params{Overlap: true})
	if err != nil {
		return false
	}
	get := func(alg perfmodel.Algorithm, n, ranks int, pl cluster.Placement) core.Measurement {
		m, err := sw.Get(alg, n, ranks, pl)
		if err != nil {
			return core.Measurement{}
		}
		return m
	}
	for _, alg := range perfmodel.Algorithms() {
		for _, n := range cluster.PaperMatrixDims() {
			for _, ranks := range cluster.PaperRankCounts() {
				full := get(alg, n, ranks, cluster.FullLoad).TotalJ
				if !(full > 0 && full < get(alg, n, ranks, cluster.HalfLoadOneSocket).TotalJ &&
					full < get(alg, n, ranks, cluster.HalfLoadTwoSockets).TotalJ) {
					return false
				}
			}
		}
	}
	for _, n := range []int{8640, 17280} {
		if !(get(perfmodel.IMe, n, 1296, cluster.FullLoad).DurationS < get(perfmodel.ScaLAPACK, n, 1296, cluster.FullLoad).DurationS) {
			return false
		}
	}
	return true
}
