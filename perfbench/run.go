package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// sizing selects input sizes: fullSize for the benchmark proper,
// tinySize for the determinism self-test.
type sizing int

const (
	tinySize sizing = iota
	fullSize
)

// bench is one benchmark workload over inputs generated from a
// seed by its constructor (input generation is never timed).
type bench interface {
	// setup performs the program-side set-up the ops need: parsing
	// schemas, fixing embeddings, compiling programs and translators,
	// building the server. It replaces any earlier set-up state; run
	// repeats it and reports the median as setup_s.
	setup(o *opCtx) error
	// gate is the untimed correctness gate run once after set-up.
	gate() error
	// pass returns the ops of the i-th pass. Every pass holds the same
	// mix of ops, so whole passes weigh every kind alike.
	pass(i int) []op
	// check runs the correctness checks that follow the timed phase.
	check() error
	// layers fills the workload-specific per-layer metrics of a traced
	// phase of ops operations.
	layers(m map[string]float64, agg *traceAgg, ops int) error
}

// op is one closed-loop operation. run returns nil on success, a
// failure for a failed op, and any other error for a correctness
// violation or a benchmark fault, which ends the run.
type op struct {
	name string
	run  func(o *opCtx) error
}

// failure marks a failed op: counted, not fatal.
type failure struct{ msg string }

func (f *failure) Error() string { return f.msg }

func failed(format string, args ...any) error {
	return &failure{msg: fmt.Sprintf(format, args...)}
}

// violation is a wrong result: it fails the whole run.
type violation struct {
	op  string
	msg string
}

func (v *violation) Error() string { return v.op + ": " + v.msg }

func violated(op, format string, args ...any) error {
	return &violation{op: op, msg: fmt.Sprintf(format, args...)}
}

// runConfig is one run's settings.
type runConfig struct {
	Workload string
	Seed     int64
	// Seconds is the minimum length of the timed phase; it always ends
	// at a pass boundary, after at least MinOps ops.
	Seconds float64
	// Passes, when positive, fixes the number of timed passes instead
	// (the self-test's count-based mode).
	Passes int
	Traced bool
	Size   sizing
	Setups int
	// SetupSeconds, when positive, repeats set-up beyond Setups until
	// that much wall time (forced collections included) has passed, at
	// most maxSetups times: cheap set-ups then get a median over many
	// more samples.
	SetupSeconds float64
}

// maxSetups caps the set-up repetitions of one run.
const maxSetups = 400

// minOps is the least number of timed ops per run, so that at least
// ten latency samples lie beyond the 90th percentile.
const minOps = 100

// endToEndNames lists the end-to-end metrics every untraced run prints.
var endToEndNames = []string{
	"setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms",
	"cpu_ms_per_op", "alloc_kb_per_op", "peak_rss_mb",
}

// record is everything one run measured: the stdout metrics and the
// diagnostics kept in the run record.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Passes     int                `json:"passes"`
	Samples    int                `json:"latency_samples"`
	Blocks     int                `json:"latency_blocks"`
	BlockMin   int                `json:"fewest_block_samples"`
	BeyondP90  int                `json:"samples_beyond_p90"`
	SetupRuns  []float64          `json:"setup_runs_s"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	// KindP50MS is the median latency of each op kind, for reading
	// where the mix's quantiles fall.
	KindP50MS map[string]float64 `json:"kind_p50_ms"`
	// FailedByKind counts failed ops of each kind.
	FailedByKind map[string]int `json:"failed_by_kind,omitempty"`
	// ProbeBeforeMS and ProbeAfterMS time the fixed host-speed kernel
	// around the workload: a diagnostic for a slow shared host, not a
	// metric.
	ProbeBeforeMS float64      `json:"host_probe_before_ms"`
	ProbeAfterMS  float64      `json:"host_probe_after_ms"`
	LayerShares   []layerShare `json:"layer_shares,omitempty"`
	// UncoveredShare is the share of traced op time no layer span
	// covers.
	UncoveredShare float64 `json:"uncovered_share,omitempty"`
}

// phase is the outcome of one timed phase.
type phase struct {
	ops, failed, passes int
	wall                time.Duration
	lat                 []float64 // ms, every attempted op
	passEnd             []int     // len(lat) at the end of each pass
	kindLat             map[string][]float64
	failedByKind        map[string]int
	// Per-pass rates: successful ops per second, CPU ms per op and
	// KiB allocated per op. The run reports their medians, which a
	// passing slow spell of the shared host moves less than a mean.
	rate, cpuPerOp, allocPerOp []float64
}

// run executes one benchmark run: input generation, repeated set-up,
// the correctness gate, the warm-up, the timed phase (plus, when
// traced, a second timed phase under tracing) and the post-timing
// checks.
func run(mk func(int64, sizing) bench, cfg runConfig) (*record, error) {
	w := mk(cfg.Seed, cfg.Size)
	// One tracer records the set-up spans and the traced phase's; the
	// untraced phases record nothing.
	var tr *tracer
	if cfg.Traced {
		tr = newTracer()
	}
	rec := &record{
		Workload:   cfg.Workload,
		Seed:       cfg.Seed,
		Traced:     cfg.Traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	settle()
	start := time.Now()
	for i := 0; i < max(cfg.Setups, 1) || time.Since(start).Seconds() < cfg.SetupSeconds && i < maxSetups; i++ {
		// Each repetition starts from a collected heap, so a collection
		// owed by the previous one does not land in it.
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(&opCtx{tr: tr, id: -1, root: -1}); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rec.SetupRuns = append(rec.SetupRuns, time.Since(t0).Seconds())
	}
	if err := w.gate(); err != nil {
		return nil, err
	}
	rec.ProbeBeforeMS = hostProbe()
	settle()
	if err := warmUp(w, cfg); err != nil {
		return nil, err
	}
	resetPeakRSS()

	next := 1
	base, err := timedPhase(w, cfg, &next, nil)
	if err != nil {
		return nil, err
	}
	res := base
	var agg *traceAgg
	if cfg.Traced {
		before := snapshotCounters()
		res, err = timedPhase(w, cfg, &next, tr)
		if err != nil {
			return nil, err
		}
		agg = tr.aggregate()
		agg.before, agg.after = before, snapshotCounters()
	}
	peakRSS := peakRSSMB()
	rec.ProbeAfterMS = hostProbe()
	if err := w.check(); err != nil {
		return nil, err
	}

	rec.Attempted, rec.Failed, rec.Passes = res.ops, res.failed, res.passes
	rec.FailedByKind = res.failedByKind
	rec.KindP50MS = map[string]float64{}
	for k, l := range res.kindLat {
		sort.Float64s(l)
		rec.KindP50MS[k] = quantile(l, 0.5)
	}
	p50s, p90s, fewest := blockQuantiles(res)
	rec.Samples, rec.Blocks, rec.BlockMin = len(res.lat), len(p90s), fewest
	rec.BeyondP90 = fewest - 1 - quantileIndex(fewest, 0.9)

	rec.EndToEnd = map[string]float64{
		"setup_s":         median(rec.SetupRuns),
		"ops_per_s":       median(res.rate),
		"latency_p50_ms":  median(p50s),
		"latency_p90_ms":  median(p90s),
		"cpu_ms_per_op":   median(res.cpuPerOp),
		"alloc_kb_per_op": median(res.allocPerOp),
		"peak_rss_mb":     peakRSS,
	}
	if cfg.Traced {
		rec.PerLayer = newPerLayer()
		fillCommonLayers(rec, agg, res, base)
		if err := w.layers(rec.PerLayer, agg, res.ops); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// timedPhase runs whole passes, starting at pass *next, until
// cfg.Seconds have elapsed and at least minOps ops ran (or exactly
// cfg.Passes passes in count-based mode).
func timedPhase(w bench, cfg runConfig, next *int, tr *tracer) (*phase, error) {
	ph := &phase{kindLat: map[string][]float64{}, failedByKind: map[string]int{}}
	var ms runtime.MemStats
	t0 := time.Now()
	for {
		ops := w.pass(*next)
		*next++
		runtime.ReadMemStats(&ms)
		alloc0, cpu0, p0 := ms.TotalAlloc, cpuTime(), time.Now()
		n0, f0 := ph.ops, ph.failed
		if err := runPass(ops, tr, ph); err != nil {
			return nil, err
		}
		wall, cpu := time.Since(p0), cpuTime()-cpu0
		runtime.ReadMemStats(&ms)
		n := float64(ph.ops - n0)
		ph.rate = append(ph.rate, (n-float64(ph.failed-f0))/wall.Seconds())
		ph.cpuPerOp = append(ph.cpuPerOp, elapsedMS(cpu)/n)
		ph.allocPerOp = append(ph.allocPerOp, float64(ms.TotalAlloc-alloc0)/1024/n)
		ph.passes++
		ph.passEnd = append(ph.passEnd, len(ph.lat))
		if cfg.Passes > 0 {
			if ph.passes >= cfg.Passes {
				break
			}
			continue
		}
		if time.Since(t0).Seconds() >= cfg.Seconds && ph.ops >= minOps {
			break
		}
	}
	ph.wall = time.Since(t0)
	return ph, nil
}

// warmUpSeconds is how long the untimed warm-up runs. On the 2-core
// reference host the first few tenths of a second after the heap is
// settled ran 20-30% slow while the heap grew back and caches refilled.
const warmUpSeconds = 1

// warmUp runs untimed passes for warmUpSeconds, at least one (exactly
// one in count-based mode). They fill caches, finish lazy set-up and
// regrow the heap settled before them. Their indices count down from
// 0, so the timed passes are the same whatever the host's speed.
func warmUp(w bench, cfg runConfig) error {
	ph := &phase{kindLat: map[string][]float64{}, failedByKind: map[string]int{}}
	t0 := time.Now()
	for i := 0; ; i-- {
		if err := runPass(w.pass(i), nil, ph); err != nil {
			return err
		}
		if cfg.Passes > 0 || time.Since(t0).Seconds() >= warmUpSeconds {
			return nil
		}
	}
}

// blockQuantiles splits a phase's latencies into blocks of whole
// consecutive passes, each of at least minOps ops (a short tail joins
// the block before it), and returns every block's median and 90th
// percentile and the op count of the smallest block. The run reports
// the median over blocks: a slow spell of the shared host that covers
// fewer than half the blocks, or a stall that lands in one of them,
// leaves it where it was, whereas a percentile pooled over the whole
// phase moves with every op that the spell slowed.
func blockQuantiles(ph *phase) (p50, p90 []float64, fewest int) {
	var ends []int
	start := 0
	for _, e := range ph.passEnd {
		if e-start >= minOps {
			ends = append(ends, e)
			start = e
		}
	}
	switch {
	case len(ends) == 0:
		ends = []int{len(ph.lat)}
	case ends[len(ends)-1] != len(ph.lat):
		ends[len(ends)-1] = len(ph.lat)
	}
	start = 0
	for _, e := range ends {
		b := append([]float64(nil), ph.lat[start:e]...)
		sort.Float64s(b)
		p50 = append(p50, quantile(b, 0.5))
		p90 = append(p90, quantile(b, 0.9))
		if fewest == 0 || len(b) < fewest {
			fewest = len(b)
		}
		start = e
	}
	return p50, p90, fewest
}

// opIDs numbers ops across the process, so spans of one op share an id.
var opIDs atomic.Int64

// runPass runs one pass's ops in order on one closed-loop client: each
// op starts only after the previous one completed. One client, on a
// 2-core host, leaves the other core to the collector and the host:
// with two clients serve kept both cores busy, and its op rate spread
// twice as far across runs.
func runPass(ops []op, tr *tracer, ph *phase) error {
	for _, op := range ops {
		o := &opCtx{tr: tr, id: opIDs.Add(1), root: -1}
		if tr != nil {
			o.root = tr.begin(o.id, "op", -1)
		}
		t0 := time.Now()
		err := op.run(o)
		d := time.Since(t0)
		if o.lat > 0 {
			d = o.lat
		}
		if tr != nil {
			tr.finish(o.root)
		}
		ph.ops++
		ph.lat = append(ph.lat, elapsedMS(d))
		ph.kindLat[op.name] = append(ph.kindLat[op.name], elapsedMS(d))
		var f *failure
		switch {
		case err == nil:
		case errors.As(err, &f):
			ph.failed++
			ph.failedByKind[op.name]++
		default:
			return err
		}
	}
	return nil
}

// settle collects garbage and returns freed memory to the OS, so each
// phase starts from the same heap state.
func settle() { debug.FreeOSMemory() }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's peak-RSS accounting for this
// process (Linux clear_refs), so that peak_rss_mb covers the timed ops
// and not the benchmark's own input generation and checks. Where the
// kernel refuses, ru_maxrss stays the peak since the process started.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size (ru_maxrss, KiB
// on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// hostProbe times a fixed kernel owned by the benchmark (the median of
// three runs), so a run taken while the host was slow can be recognised
// in its record. The kernel mixes an integer loop in cache with a chain
// of dependent loads over 16 MiB, because a busy shared host slows
// memory-bound work (search, migration) far more than arithmetic.
func hostProbe() float64 {
	mem := make([]uint32, 4<<20)
	for i := range mem {
		mem[i] = uint32(i) * 2654435761
	}
	var runs []float64
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		buf := make([]uint64, 1<<13)
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 3<<20; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i&(len(buf)-1)] += x
		}
		j := uint32(x)
		for i := 0; i < 1<<18; i++ {
			j = mem[j&uint32(len(mem)-1)] ^ uint32(i)
		}
		probeSink += buf[int(x&uint64(len(buf)-1))] + uint64(j)
		runs = append(runs, elapsedMS(time.Since(t0)))
	}
	return median(runs)
}

// probeSink keeps the probe's result live.
var probeSink uint64

// quantileIndex is the nearest-rank index of quantile q in n sorted
// samples.
func quantileIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileIndex(len(sorted), q)]
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
