package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/perfmodel"
	"repro/internal/sparse"
)

// The serve workload's request mix. Each connection draws its own
// deterministic sequence from (seed, connection), so the same seed gives
// the same requests whatever the run length. Fresh requests are unique
// within a connection (a set of issued URLs is kept) and across
// connections (connection c only draws matrix orders of parity c), so
// the only cache hits are the deliberate repeats.

// Request kinds, in the order the mix draws them.
const (
	kindDense  = iota // unique in-envelope dense recommend/predict: surrogate path
	kindCapped        // unique power-capped recommend: exact perfmodel under admission
	kindSparse        // unique matrix=sparse recommend: coalescer, admission, sparse model
	kindRepeat        // a recent URL of this connection again: cache hit
	numKinds
)

// Shares of the mix. Capped requests are a few percent so that the 99th
// percentile of latency falls inside their population (an exact model
// evaluation of about 0.8 ms against about 0.1 ms for the rest) and
// measures the model path rather than scheduler jitter.
const (
	shareCapped = 0.03
	shareSparse = 0.10
	shareRepeat = 0.12
)

// historyLen bounds how far back a repeat reaches. Far below the server's
// 4096-entry result cache, so a repeat is always a hit.
const historyLen = 256

// request is one generated request.
type request struct {
	kind   int
	shape  shape
	url    string
	origin int // history-ring slot of the request (for a repeat: of the original)
}

// shape is a request's parameters, kept so that its answer can be checked
// against a direct computation without parsing the URL back.
type shape struct {
	endpoint  string // recommend, predict or sparse
	alg       perfmodel.Algorithm
	n, ranks  int
	placement cluster.Placement
	objective core.Objective
	capW      float64
	salg      sparse.Algorithm
	spec      sparse.Spec
}

// params are the model parameters the server resolves for a dense shape
// (overlap on and the default block size unless the query says otherwise).
func (s shape) params() perfmodel.Params {
	return perfmodel.Params{Overlap: true, PowerCapW: s.capW}.Normalized()
}

// url renders the shape as a request path and query.
func (s shape) url() string {
	switch s.endpoint {
	case "sparse":
		q := fmt.Sprintf("/v1/recommend?matrix=sparse&alg=%s&kind=%s&n=%d&ranks=%d", s.salg, s.spec.Kind, s.spec.N, s.ranks)
		if s.spec.Kind == sparse.Banded {
			q += fmt.Sprintf("&band=%d", s.spec.Band)
		} else {
			q += fmt.Sprintf("&density=%g", s.spec.Density)
		}
		return q + fmt.Sprintf("&cond=%g&objective=%s", s.spec.Cond, s.objective)
	case "predict":
		return fmt.Sprintf("/v1/predict?alg=%s&n=%d&ranks=%d&placement=%s", s.alg, s.n, s.ranks, s.placement)
	}
	q := fmt.Sprintf("/v1/recommend?n=%d&ranks=%d&placement=%s&objective=%s", s.n, s.ranks, s.placement, s.objective)
	if s.capW > 0 {
		q += fmt.Sprintf("&cap_w=%g", s.capW)
	}
	return q
}

// mixGen generates one connection's request sequence.
type mixGen struct {
	rng     *rand.Rand
	conn    int
	seen    map[uint64]bool // FNV-64 of every fresh URL (a collision only forces a redraw)
	history []request       // ring of the last historyLen fresh requests
	issued  int             // fresh requests issued
	drawn   int             // requests drawn, fresh or repeated
}

func newMixGen(seed int64, conn int) *mixGen {
	return &mixGen{
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(conn))),
		conn: conn,
		seen: make(map[uint64]bool),
	}
}

// next returns the connection's next request.
func (g *mixGen) next() request {
	g.drawn++
	r := g.rng.Float64()
	switch {
	case r < shareRepeat && g.issued > 0:
		i := g.rng.Intn(min(g.issued, historyLen))
		orig := g.history[(g.issued-1-i)%historyLen]
		return request{kind: kindRepeat, shape: orig.shape, url: orig.url, origin: orig.origin}
	case r < shareRepeat+shareCapped:
		return g.fresh(kindCapped)
	case r < shareRepeat+shareCapped+shareSparse:
		return g.fresh(kindSparse)
	default:
		return g.fresh(kindDense)
	}
}

// fresh draws a URL of the kind never issued before on this connection.
func (g *mixGen) fresh(kind int) request {
	for {
		sh := g.draw(kind)
		u := sh.url()
		h := fnv.New64a()
		h.Write([]byte(u))
		if g.seen[h.Sum64()] {
			continue
		}
		g.seen[h.Sum64()] = true
		req := request{kind: kind, shape: sh, url: u, origin: g.issued % historyLen}
		if len(g.history) < historyLen {
			g.history = append(g.history, req)
		} else {
			g.history[req.origin] = req
		}
		g.issued++
		return req
	}
}

var objectives = []core.Objective{core.MinEnergy, core.MinTime, core.MaxEfficiency}

// draw draws one random shape of the kind.
func (g *mixGen) draw(kind int) shape {
	rng := g.rng
	if kind == kindSparse {
		sh := shape{endpoint: "sparse", ranks: core.SparseSweepRanks, placement: cluster.FullLoad}
		sh.salg = sparse.Algorithms()[rng.Intn(len(sparse.Algorithms()))]
		// Log-uniform order over the sparse grid's range (16Ki..1Mi).
		n := int(math.Exp(math.Log(16384)+rng.Float64()*math.Log(64)))&^1 | g.conn
		sh.spec = sparse.Spec{N: n, Cond: []float64{1e2, 1e4}[rng.Intn(2)], Seed: core.SparseSweepSeed}
		sh.objective = objectives[rng.Intn(len(objectives))]
		if rng.Intn(2) == 0 {
			sh.spec.Kind, sh.spec.Band = sparse.Banded, 256
		} else {
			sh.spec.Kind, sh.spec.Density = sparse.Random, []float64{1e-4, 1e-3}[rng.Intn(2)]
		}
		return sh
	}
	// Dense shapes: a §5.1 order jittered by up to ±10% off the grid, a
	// paper rank count and placement.
	dims := cluster.PaperMatrixDims()
	base := dims[rng.Intn(len(dims))]
	sh := shape{
		endpoint:  "recommend",
		n:         (base+rng.Intn(base/5+1)-base/10)&^1 | g.conn,
		ranks:     cluster.PaperRankCounts()[rng.Intn(len(cluster.PaperRankCounts()))],
		placement: cluster.Placements()[rng.Intn(len(cluster.Placements()))],
		objective: objectives[rng.Intn(len(objectives))],
	}
	switch {
	case kind == kindCapped:
		sh.capW = []float64{110, 130}[rng.Intn(2)]
	case rng.Intn(2) == 1:
		sh.endpoint = "predict"
		sh.alg = perfmodel.Algorithms()[rng.Intn(len(perfmodel.Algorithms()))]
	}
	return sh
}
