package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ime"
	"repro/internal/mat"
	"repro/internal/monitor"
	"repro/internal/mpi"
	"repro/internal/perfmodel"
	"repro/internal/power"
	"repro/internal/scalapack"
)

// The two monitored-solve workloads: core.RunMonitored of one experiment,
// over and over, on an input system generated from the seed.

// solveWide is IMe with one row per rank on 1296 ranks at full load (27
// nodes): the paper's most distributed deployment, where the simulated
// MPI runtime does nearly all the work.
var solveWide = core.Experiment{Algorithm: perfmodel.IMe, N: 1296, Ranks: 1296, Placement: cluster.FullLoad}

// solveDeep is ScaLAPACK at n = 2048 on one full-load node (48 ranks):
// few ranks and large messages, where the GEMM kernel does the work.
var solveDeep = core.Experiment{Algorithm: perfmodel.ScaLAPACK, N: 2048, Ranks: 48, Placement: cluster.FullLoad}

func runSolveWide(e *env) (*report, error) { return runSolve(e, solveWide) }
func runSolveDeep(e *env) (*report, error) { return runSolve(e, solveDeep) }

// setupReps is how many times a set-up is timed; its median is reported.
const setupReps = 5

// Output-check tolerances.
const (
	maxResidual = 1e-12
	// crossCheckBand is the ratio within which the monitored engine's
	// duration and energy must agree with the analytic model: the widest
	// band the analytic-vs-executed cross-check holds the model to
	// (internal/perfmodel/crosscheck_test.go, ×2.5 at 576 ranks).
	crossCheckBand = 2.5
	// flopsLeadingTol bounds solver flops against the leading term of the
	// method's operation count (3/2·n³ for IMe, 2/3·n³ for LU): the
	// lower-order terms are O(1/n) of it, under 1% at these orders.
	flopsLeadingTol = 0.01
	// peakDramBytesPerS is the per-socket memory bandwidth ceiling used for
	// the energy ceiling: six DDR4-2666 channels, about 128 GB/s.
	peakDramBytesPerS = 128e9
)

func runSolve(e *env, x core.Experiment) (*report, error) {
	x.Seed = e.seed
	r := newReport()
	cfg, err := cluster.NewConfig(x.Ranks, x.Placement, cluster.MarconiA3())
	if err != nil {
		return nil, err
	}

	// Set-up: input-system generation plus world construction, timed
	// several times. The cached system the solves read is filled after.
	var setups, systemMS, worldUS []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		mat.NewRandomSystem(x.N, x.Seed)
		t1 := time.Now()
		if _, err := mpi.NewWorld(x.Ranks, mpi.Options{Config: &cfg}); err != nil {
			return nil, err
		}
		t2 := time.Now()
		setups = append(setups, t2.Sub(t0).Seconds())
		systemMS = append(systemMS, ms(t1.Sub(t0)))
		worldUS = append(worldUS, us(t2.Sub(t1)))
	}
	r.set("setup_s", median(setups))
	mat.CachedSystem(x.N, x.Seed)
	// One untimed solve lets the heap, goroutine stacks and the message
	// buffer pool reach their steady size before timing.
	if _, err := core.RunMonitored(x); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}

	analytic, err := core.RunAnalytic(x, perfmodel.Params{})
	if err != nil {
		return nil, err
	}
	var energies []float64
	var duration float64
	// checkSolve applies the per-solve output checks; it returns false if
	// any failed.
	checkSolve := func(m core.Measurement, err error) bool {
		if !r.verify("solve.completes", err == nil) {
			return false
		}
		ok := r.verify("solve.residual<=1e-12", m.Residual <= maxResidual)
		if duration == 0 {
			duration = m.DurationS
		}
		ok = r.verify("solve.duration_identical", m.DurationS == duration) && ok
		floor, ceil := energyBounds(cfg, m.DurationS)
		ok = r.verify("solve.energy_within_floor_ceiling", m.TotalJ >= floor && m.TotalJ <= ceil) && ok
		ok = r.verify("solve.analytic_band", within(m.DurationS, analytic.DurationS, crossCheckBand) &&
			within(m.TotalJ, analytic.TotalJ, crossCheckBand)) && ok
		energies = append(energies, m.TotalJ)
		return ok
	}

	// Untraced phase: whole solves until the window is spent.
	bytes0, objs0 := allocCounters()
	var lat []float64
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < e.window {
		t := time.Now()
		m, err := core.RunMonitored(x)
		lat = append(lat, ms(time.Since(t)))
		r.attempted++
		if !checkSolve(m, err) {
			r.failed++
		}
	}
	r.set("peak_heap_mb", e.heap.stop())
	bytes1, objs1 := allocCounters()
	ops := float64(len(lat))
	r.set("latency_p50_ms", median(lat))
	r.set("latency_p99_ms", tail(lat))
	r.set("goodput_rps", float64(len(lat)-r.failed)/(sum(lat)/1e3))
	if !e.traced {
		return r, nil
	}
	r.set("go.alloc_kb_per_op", float64(bytes1-bytes0)/1e3/ops)
	r.set("go.mallocs_per_op", float64(objs1-objs0)/ops)
	r.set("mat.system_ms", median(systemMS))
	r.set("mpi.world_setup_us", median(worldUS))

	// Traced phase: the same solves with the world's metrics registry on,
	// under a CPU profile. Their traffic and work are checked against laws
	// derived apart from the solve under test.
	want, err := trafficLaw(x, cfg)
	if err != nil {
		return nil, err
	}
	leading := 1.5 * math.Pow(float64(x.N), 3)
	if x.Algorithm == perfmodel.ScaLAPACK {
		leading = 2.0 / 3.0 * math.Pow(float64(x.N), 3)
	}
	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	var tlat []float64
	var sums []map[string]float64
	start = time.Now()
	for len(tlat) == 0 || time.Since(start) < e.window {
		var buf bytes.Buffer
		t := time.Now()
		m, _, err := core.RunMonitoredInstrumented(x, core.Instrumentation{MetricsW: &buf})
		tlat = append(tlat, ms(time.Since(t)))
		r.attempted++
		ok := checkSolve(m, err)
		if err == nil {
			s, perr := promSum(buf.Bytes())
			if perr != nil {
				return nil, perr
			}
			sums = append(sums, s)
			msgs, elems := s["mpi_messages_total"], s["mpi_message_bytes_total"]/mpi.Float64Bytes
			ok = r.verify("solve.traffic_law", msgs == want.msgs && elems == want.elems) && ok
			ok = r.verify("solve.flops_leading_term", math.Abs(s["solver_flops_total"]/leading-1) <= flopsLeadingTol) && ok
			ok = r.verify("solve.metrics_repeat", s["mpi_messages_total"] == sums[0]["mpi_messages_total"] &&
				s["mpi_message_bytes_total"] == sums[0]["mpi_message_bytes_total"] &&
				s["solver_flops_total"] == sums[0]["solver_flops_total"]) && ok
		}
		if !ok {
			r.failed++
		}
	}
	if err := prof.stop(); err != nil {
		return nil, err
	}
	prof.report(r, len(tlat))
	r.set("trace.overhead_ms", median(tlat)-median(lat))
	if len(sums) == 0 {
		return r, nil
	}
	s := sums[0]
	r.set("mpi.messages", s["mpi_messages_total"])
	r.set("mpi.message_bytes", s["mpi_message_bytes_total"])
	r.set("mpi.barriers", s["mpi_barriers_total"])
	r.set("mpi.collectives", s["mpi_collectives_total"])
	r.set("mpi.compute_vs", s["mpi_compute_seconds_total"])
	r.set("mpi.wait_vs", s["mpi_wait_seconds_total"])
	r.set("solver.flops", s["solver_flops_total"])
	r.set("solver.levels", s["solver_levels_total"])
	r.set("kernel.tiles", s["kernel_pool_tiles_total"])
	r.set("kernel.parallel_for", s["kernel_parallel_for_total"])
	kernelS := prof.bucketNS["kernel"] / 1e9 / float64(len(tlat))
	if kernelS > 0 {
		r.set("kernel.gflops", s["solver_flops_total"]/kernelS/1e9)
	}
	r.set("rapl.energy_spread_ppm", (maxOf(energies)-minOf(energies))/median(energies)*1e6)
	return r, nil
}

// energyBounds returns the energy a run of the given duration on cfg's
// nodes must lie between: every node idle, and every node at its package
// power ceiling with DRAM at full bandwidth.
func energyBounds(cfg cluster.Config, durationS float64) (floor, ceil float64) {
	cal := power.Skylake8160()
	sockets := float64(cfg.Nodes * cfg.Spec.SocketsPerNode)
	floor = sockets * (cal.PkgIdle + cal.DramIdle) * durationS
	ceil = sockets * (cal.TDP + cal.OSNoise + cal.UncoreLoad + cal.DramPower(peakDramBytesPerS)) * durationS
	return floor, ceil
}

func within(got, want, ratio float64) bool {
	return got > 0 && want > 0 && got/want <= ratio && want/got <= ratio
}

// traffic is the message count and float64-element volume a monitored
// solve must show.
type traffic struct{ msgs, elems float64 }

// trafficLaw derives the traffic a monitored solve of x must show, apart
// from the solve under test: the monitor's own traffic, counted on a world
// that runs only the monitoring session (set-up, start, stop, report
// collection), plus the solver's. IMe's is ime.ExpectedMessages /
// ExpectedVolume; ScaLAPACK's is scalapackTraffic.
func trafficLaw(x core.Experiment, cfg cluster.Config) (traffic, error) {
	msgs, elems, err := countTraffic(x.Ranks, cfg, func(*mpi.Proc) error { return nil })
	if err != nil {
		return traffic{}, err
	}
	if x.Algorithm == perfmodel.IMe {
		return traffic{msgs + float64(ime.ExpectedMessages(x.N, x.Ranks)), elems + float64(ime.ExpectedVolume(x.N, x.Ranks))}, nil
	}
	m, v, err := scalapackTraffic(x.N, x.Ranks, scalapack.DefaultBlockSize)
	return traffic{msgs + m, elems + v}, err
}

// scalapackTraffic is the traffic of scalapack.Pdgesv (right-hand side
// carried along, input not scattered) on an n×n system over ranks ranks
// in nb-wide blocks, when partial pivoting never swaps rows — true of the
// strictly diagonally dominant systems mat.NewRandomSystem generates. A
// broadcast over q ranks is a binomial tree (q−1 messages of the payload);
// an allreduce is a binomial reduce and broadcast (2(q−1) messages).
func scalapackTraffic(n, ranks, nb int) (msgs, elems float64, err error) {
	g, err := scalapack.NewGrid(ranks)
	if err != nil {
		return 0, 0, err
	}
	p, pr, pc, nf := float64(ranks), float64(g.Pr), float64(g.Pc), float64(n)
	// Row and column communicators: two splits, each an allgather of
	// (color, key) as a gather to rank 0 and a broadcast of the 2p table.
	msgs += 2 * 2 * (p - 1)
	elems += 2 * ((p-1)*2 + (p-1)*2*p)
	for k0 := 0; k0 < n; k0 += nb {
		kw := min(nb, n-k0)
		k1 := k0 + kw
		w := float64(kw)
		// In the panel's process column, per column: the pivot search (a
		// max-loc allreduce of 2 values) and the pivot row's broadcast.
		for j := k0; j < k1; j++ {
			msgs += 3 * (pr - 1)
			elems += 4*(pr-1) + (pr-1)*float64(k1-j)
		}
		// Along every process row: the pivot list (status plus kw
		// indices), then the L panel (the row owner's rows × kw).
		msgs += 2 * pr * (pc - 1)
		elems += pr*(pc-1)*(w+1) + (pc-1)*nf*w
		// Down every process column: the U block row over the trailing
		// columns, plus kw entries of b.
		msgs += pc * (pr - 1)
		elems += (pr - 1) * (w*(nf-float64(k1)) + pc*w)
		// Back substitution of this block: an allreduce of kw partial sums
		// along the solving process row, then the solved block (status
		// plus kw values) broadcast to every rank.
		msgs += 2*(pc-1) + (p - 1)
		elems += 2*(pc-1)*w + (p-1)*(w+1)
	}
	return msgs, elems, nil
}

// countTraffic runs body on a fresh world of the given size inside a
// monitoring session like core.RunMonitored's, and returns the world's
// message and float64-element counts.
func countTraffic(ranks int, cfg cluster.Config, body func(*mpi.Proc) error) (msgs, elems float64, err error) {
	w, err := mpi.NewWorld(ranks, mpi.Options{Config: &cfg})
	if err != nil {
		return 0, 0, err
	}
	err = w.Run(func(p *mpi.Proc) error {
		s, err := monitor.Setup(p, p.World())
		if err != nil {
			return err
		}
		if err := s.StartMonitoring(); err != nil {
			return err
		}
		if err := body(p); err != nil {
			return err
		}
		rep, err := s.StopMonitoring()
		if err != nil {
			return err
		}
		_, err = monitor.CollectReports(p, p.World(), rep)
		return err
	})
	if err != nil {
		return 0, 0, fmt.Errorf("traffic reference run: %w", err)
	}
	m, v := w.Traffic()
	return float64(m), float64(v), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
