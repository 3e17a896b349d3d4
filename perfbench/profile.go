package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// --- CPU profile, bucketed by Go package ---

// cpuProfile is a running runtime/pprof CPU profile together with the
// process CPU time it should account for.
type cpuProfile struct {
	buf      bytes.Buffer
	rusage0  time.Duration
	bucketNS map[string]float64 // self CPU by bucket, filled by stop
	totalNS  float64            // sum of bucketNS
	processS float64            // process user+system CPU over the profile
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{rusage0: processCPU()}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and buckets its samples.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	p.processS = (processCPU() - p.rusage0).Seconds()
	buckets, err := bucketProfile(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("read CPU profile: %w", err)
	}
	p.bucketNS = buckets
	for _, v := range buckets {
		p.totalNS += v
	}
	return nil
}

// report sets every <bucket>.cpu_us_per_op metric and the profile
// reconciliation ratio (profiled CPU over process CPU).
func (p *cpuProfile) report(r *report, ops int) {
	for _, b := range profileBuckets {
		r.set(b+".cpu_us_per_op", p.bucketNS[b]/1e3/float64(ops))
	}
	ratio := p.totalNS / 1e9 / p.processS
	r.set("recon.profile_cpu", ratio)
	r.verify("recon.profile_cpu_in_band", ratio >= bandProfileCPU[0] && ratio <= bandProfileCPU[1])
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// repoModules are the repository packages with a bucket of their own.
var repoModules = map[string]bool{
	"kernel": true, "mpi": true, "rapl": true, "monitor": true, "ime": true,
	"scalapack": true, "perfmodel": true, "store": true, "campaign": true,
	"sched": true, "server": true, "surrogate": true,
}

// bucketOf charges one stack (leaf first) to a bucket:
//   - a repository package with a bucket of its own takes it; any other
//     repository package (and this harness) is "other";
//   - net/http and encoding/json take their buckets;
//   - runtime frames doing garbage collection or allocation are
//     runtime_gc, and scheduling, parking and locking runtime_sched;
//   - any other standard-library frame (memmove, sync, syscall, bufio,
//     strconv, ...) is charged to its nearest caller that has a bucket,
//     so a copy made for the message layer counts as mpi.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		pkg, name := splitFunc(fn)
		switch {
		case strings.HasPrefix(pkg, "repro/internal/"):
			if m := strings.TrimPrefix(pkg, "repro/internal/"); repoModules[m] {
				return m
			}
			return "other"
		case strings.HasPrefix(pkg, "repro/"):
			return "other"
		case pkg == "net/http":
			return "net_http"
		case pkg == "encoding/json":
			return "encoding_json"
		case pkg == "runtime":
			if b := runtimeBucket(name); b != "" {
				return b
			}
		}
	}
	return "other"
}

// runtimeBucket classifies a runtime function, or returns "" for one that
// is charged to its caller.
func runtimeBucket(name string) string {
	for _, s := range []string{"gc", "GC", "mark", "Mark", "sweep", "Sweep", "scan", "greyobject",
		"findObject", "malloc", "mcache", "mcentral", "mheap", "mspan", "heapBits", "wbBuf",
		"WriteBarrier", "newobject", "makeslice", "growslice", "makemap", "memclrNoHeapPointers",
		"bulkBarrier", "typedmemmove", "(*pageAlloc)", "sysAlloc", "sysUnused"} {
		if strings.Contains(name, s) {
			return "runtime_gc"
		}
	}
	for _, s := range []string{"schedule", "findRunnable", "park", "ready", "runq", "futex", "note",
		"mcall", "gosched", "Gosched", "lock", "steal", "netpoll", "Timers", "spinning", "wakep",
		"startm", "stopm", "sema", "chan", "select", "gogo", "goexit", "usleep", "osyield",
		"procyield", "mPark", "handoff", "execute", "newproc", "gfget", "gfput", "casgstatus",
		"morestack", "newstack", "copystack"} {
		if strings.Contains(name, s) {
			return "runtime_sched"
		}
	}
	return ""
}

// splitFunc splits a symbol such as "repro/internal/mpi.(*Proc).Send"
// into its package path and the rest.
func splitFunc(fn string) (pkg, name string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+2+dot:]
}

// bucketProfile decodes a gzipped pprof CPU profile and sums each
// sample's CPU nanoseconds into the bucket of its stack.
func bucketProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range prof.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, prof.locFuncs[loc]...)
		}
		if prof.valueIndex >= len(s.values) {
			return nil, errors.New("sample without a cpu value")
		}
		out[bucketOf(stack)] += float64(s.values[prof.valueIndex])
	}
	return out, nil
}

// The subset of profile.proto read here (github.com/google/pprof):
//
//	Profile  1 sample_type ValueType, 2 sample Sample, 4 location Location,
//	         5 function Function, 6 string_table string
//	ValueType 1 type, 2 unit (string indexes)
//	Sample   1 location_id uint64, 2 value int64 (packed or not)
//	Location 1 id, 4 line Line
//	Line     1 function_id
//	Function 1 id, 2 name (string index)
type profileData struct {
	samples    []profSample
	locFuncs   map[uint64][]string // location id → function names, innermost first
	valueIndex int                 // index of the cpu/nanoseconds value
}

type profSample struct {
	locs   []uint64
	values []int64
}

func decodeProfile(b []byte) (*profileData, error) {
	var (
		sampleTypes [][2]uint64
		samples     []profSample
		locLines    = map[uint64][]uint64{} // location → function ids
		funcNames   = map[uint64]uint64{}   // function → name string index
		strs        []string
	)
	err := eachField(b, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(msg, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					vt[f-1] = v
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := eachField(msg, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, _ int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(msg, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profileData{samples: samples, locFuncs: make(map[uint64][]string, len(locLines)), valueIndex: -1}
	for i, vt := range sampleTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("no cpu/nanoseconds sample type")
	}
	for id, fns := range locLines {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad protobuf length")
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints reads a repeated varint field in either encoding.
func appendVarints(wire int, v uint64, packed []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}

// --- Go runtime counters ---

// allocCounters reads the cumulative heap allocation counters.
func allocCounters() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler records the highest Go heap in use (live and not yet swept
// objects) while it runs.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
}

// heapSampleEvery is fine enough to see the heap's peak just before a
// collection on every workload (a GC cycle of the smallest heap here
// takes well over this long to fill).
const heapSampleEvery = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.stopCh:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB (10^6 bytes).
func (h *heapSampler) stop() float64 {
	close(h.stopCh)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

// --- Prometheus text exposition ---

// promSum parses a Prometheus text exposition and returns, per metric
// name, the sum of its samples over all label sets (histogram series keep
// their _bucket/_sum/_count suffixes as their own names).
func promSum(text []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// name{labels} value [# exemplar]
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("sample line %q: %w", line, err)
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out, sc.Err()
}
