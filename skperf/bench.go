package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/zab"
)

// options are one run's settings. Everything else (variant, replicas,
// SGX latency, client placement, in-flight window) is fixed by the
// benchmark so that runs compare.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	dataRoot string
	setups   int           // set-ups per run (0: the workload's default); setup_s is their median
	warmup   time.Duration // closed loops run this long before the window
	spansOut string        // file the traced window's spans are written to, if set
	// corruptExpect makes the read-mix check expect a wrong key once,
	// so its tests can show the check fails a run.
	corruptExpect bool
}

// workload is one traffic mix. A workload owns its clients and the
// state its output checks need; windows may run several times.
type workload interface {
	// setup preloads data and connects the load generators. It is timed
	// as part of setup_s.
	setup(ctx context.Context, b *bench) error
	// redial replaces the load generators' sessions with traced ones.
	redial(ctx context.Context, b *bench) error
	// run drives every closed loop until stop closes, then waits for
	// outstanding ops, recording into w.
	run(ctx context.Context, b *bench, stop <-chan struct{}, w *window)
	// check verifies the outputs and the cluster state after the
	// windows; an error fails the run. Findings that do not fail it
	// are written to out.
	check(ctx context.Context, b *bench, out io.Writer) error
	// writeBytes is the size of the values the workload writes.
	writeBytes() int
	// paths is the workload's plaintext path sequence, replayed through
	// the storage codec and the tree for the per-layer crypto and
	// lookup figures.
	paths() []string
	close()
}

// defaultSetups is how many times a run sets up each workload: enough
// that the median set-up time is steady, fewer where set-up is long.
var defaultSetups = map[string]int{"sk-write": 25, "sk-read-mix": 5, "sk-lock-churn": 25}

func newWorkload(name string, seed int64, opt options) (workload, error) {
	switch name {
	case "sk-write":
		return &writeLoad{seed: seed}, nil
	case "sk-read-mix":
		return &readMix{seed: seed, corruptExpect: opt.corruptExpect}, nil
	case "sk-lock-churn":
		return &lockChurn{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sk-write, sk-read-mix or sk-lock-churn)", name)
}

// bench is one booted cluster and the state shared by its workload.
type bench struct {
	opt      options
	cl       *core.Cluster
	leader   int
	follower int
	tr       *tracer
	served   sync.WaitGroup // ServeExternal goroutines of traced sessions
	traced   bool           // dial through the tracer
}

// boot starts an in-memory 3-voter SecureKeeper ensemble (no WAL; see
// README.md, "Durability").
func boot(opt options, tr *tracer) (*bench, error) {
	cfg := core.Config{
		Variant:         core.SecureKeeper,
		Replicas:        3,
		ApplySGXLatency: true,
	}
	if tr != nil {
		cfg.WrapTransport = tr.wrapZab
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return nil, fmt.Errorf("boot cluster: %w", err)
	}
	b := &bench{opt: opt, cl: cl, tr: tr}
	b.leader = cl.LeaderIndex()
	if b.leader < 0 {
		b.teardown()
		return nil, core.ErrNoLeader
	}
	b.follower = (b.leader + 1) % 3
	return b, nil
}

// dial opens a session to replica i: Cluster.Connect normally, the
// traced path once tracing is switched on.
func (b *bench) dial(i int) (*client.Client, *tracedConn, error) {
	if b.traced {
		return b.dialTraced(i)
	}
	cl, err := b.cl.Connect(i, client.Options{})
	return cl, nil, err
}

func (b *bench) teardown() {
	b.served.Wait()
	b.cl.Close()
}

// window is what the load generators record during one measured
// interval. Each closed loop owns one loopRec.
type window struct {
	mu    sync.Mutex
	loops []*loopRec
	tr    *tracer
	slice atomic.Int32 // index of the slice now running
	edges []procSample // process state at each slice boundary, start included
}

// slices is how many equal sub-windows a window is cut into. Rates,
// latency quantiles and CPU per op are taken per slice and the median
// slice is reported, so that a burst from a neighbour on a shared host
// moves one slice, not the run.
const slices = 10

// opStats holds one loop's samples of one slice by op kind. The
// workload's top-level op is a Get or Set, or a whole lock cycle.
type opStats struct {
	ops     int64 // top-level ops completed, failed ones included
	failed  int64
	read    latencies
	write   latencies
	cycle   latencies // connect to close
	connect latencies
	lock    latencies // Acquire + Unlock
}

// loopRec is one closed loop's record of a window. Only the loop's
// goroutine touches it until the window ends.
type loopRec struct {
	w        *window
	onLeader bool
	slices   []opStats
}

// at returns the stats of the slice now running.
func (r *loopRec) at() *opStats {
	i := int(r.w.slice.Load())
	for len(r.slices) <= i {
		r.slices = append(r.slices, opStats{})
	}
	return &r.slices[i]
}

func (w *window) loop(onLeader bool) *loopRec {
	r := &loopRec{w: w, onLeader: onLeader}
	w.mu.Lock()
	w.loops = append(w.loops, r)
	w.mu.Unlock()
	return r
}

// each calls fn on every loop's stats of slice i, or of every slice
// when i < 0.
func (w *window) each(i int, fn func(*opStats)) {
	for _, r := range w.loops {
		for j := range r.slices {
			if i < 0 || i == j {
				fn(&r.slices[j])
			}
		}
	}
}

func (w *window) totals() (ops, failed int64) {
	w.each(-1, func(s *opStats) {
		ops += s.ops
		failed += s.failed
	})
	return ops, failed
}

// merged returns the sorted samples of one op kind in slice i (all
// slices when i < 0).
func (w *window) merged(i int, pick func(*opStats) *latencies) []int64 {
	var ls []*latencies
	w.each(i, func(s *opStats) { ls = append(ls, pick(s)) })
	return merge(ls...)
}

// root records a root span when tracing is on.
func (w *window) root(kind spanKind, tc *tracedConn, before int64, start, end time.Time) {
	if w.tr == nil || tc == nil {
		return
	}
	lo, hi := tc.rootIDs(before)
	w.tr.record(span{kind: kind, id: lo, idHi: hi, start: int64(start.Sub(w.tr.epoch)), end: int64(end.Sub(w.tr.epoch))})
}

// edge is the state of every layer's public counters at a window edge.
type edge struct {
	proc      procSample
	peers     []zab.Stats
	virtualNs float64
	epcFaults int64
	obs       obsTotals
}

func (b *bench) edge() edge {
	e := edge{obs: obsTotals{}}
	for i := 0; i < b.cl.Size(); i++ {
		r := b.cl.Replica(i)
		e.peers = append(e.peers, r.Peer().StatsSnapshot())
		rt := b.cl.Runtime(i)
		e.virtualNs += rt.Meter().VirtualNs()
		_, faults := rt.EPC().Stats()
		e.epcFaults += faults
		e.obs.add(b.cl.Obs(i))
	}
	e.proc = sampleProc()
	return e
}

// measured is the outcome of one window.
type measured struct {
	w         *window
	from, to  edge
	elapsed   time.Duration
	elections int64
	resyncs   int64
	spans     []span
	heapMiB   float64 // mean live heap over the window
}

// measure runs one window of d (cut short when a traced window's span
// buffer fills) and samples every layer at both edges.
func (b *bench) measure(ctx context.Context, wl workload, d time.Duration, traced bool) measured {
	w := &window{}
	if traced {
		w.tr = b.tr
		b.tr.start()
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	runtime.GC() // every window starts from a collected heap
	from := b.edge()
	go func() {
		defer close(done)
		wl.run(ctx, b, stop, w)
	}()
	var full <-chan struct{}
	if traced {
		full = b.tr.full
	}
	m := measured{w: w}
	// The live heap is sampled through the window: the zab commit log
	// grows and halves in a sawtooth, so one sample reads a random phase.
	var heap []float64
	tick := time.NewTicker(heapEvery)
	cut := time.NewTicker(d / slices)
	w.edges = append(w.edges, from.proc)
sampling:
	for {
		select {
		case <-tick.C:
			heap = append(heap, liveHeapMiB())
		case <-cut.C:
			w.edges = append(w.edges, sampleCPU())
			if len(w.edges) > slices {
				break sampling
			}
			w.slice.Add(1)
		case <-full:
			break sampling
		}
	}
	tick.Stop()
	cut.Stop()
	w.slice.Add(1) // ops completing while the loops drain fall past the last edge
	close(stop)
	m.heapMiB = mean(heap)
	<-done
	m.to = b.edge()
	if traced {
		m.spans = b.tr.stop()
	}
	m.from = from
	m.elapsed = m.to.proc.at.Sub(from.proc.at)
	for i := range m.to.peers {
		m.elections += m.to.peers[i].Elections - from.peers[i].Elections
		m.resyncs += m.to.peers[i].Resyncs - from.peers[i].Resyncs
	}
	return m
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run: set-ups, warm-up, the measured window
// and, with tracing, a second traced window; then the output checks.
func run(ctx context.Context, opt options, out io.Writer) (result, error) {
	medium := filesystem(opt.dataRoot)
	fmt.Fprintf(out, "workload=%s seed=%d window=%s trace=%v variant=SecureKeeper replicas=3 sgx_latency=applied wal=none storage_replay_medium=%s\n",
		opt.workload, opt.seed, opt.window, opt.trace, medium)

	var (
		b      *bench
		wl     workload
		setups []float64
	)
	if opt.setups == 0 {
		opt.setups = defaultSetups[opt.workload]
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	for k := 0; k < max(opt.setups, 1); k++ {
		if b != nil {
			wl.close()
			b.teardown()
		}
		var err error
		wl, err = newWorkload(opt.workload, opt.seed, opt)
		if err != nil {
			return result{}, err
		}
		start := time.Now()
		b, err = boot(opt, tr)
		if err == nil {
			err = wl.setup(ctx, b)
			if err != nil {
				wl.close()
				b.teardown()
			}
		}
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", k, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.teardown()
	defer wl.close()

	if opt.warmup > 0 {
		b.measure(ctx, wl, opt.warmup, false)
	}
	m := b.measure(ctx, wl, opt.window, false)
	var tm measured
	if opt.trace {
		for i := 0; i < b.cl.Size(); i++ {
			b.tr.observeEcalls(b.cl.Runtime(i))
		}
		b.traced = true
		b.tr.start() // the new sessions' handshakes are part of the trace
		if err := wl.redial(ctx, b); err != nil {
			return result{}, fmt.Errorf("traced redial: %w", err)
		}
		tm = b.measure(ctx, wl, opt.window/2, true)
	}

	var problems []string
	for _, w := range []measured{m, tm} {
		if w.w == nil {
			continue
		}
		if w.elections != 0 || w.resyncs != 0 {
			problems = append(problems, fmt.Sprintf("validity: %d elections and %d resyncs inside a window", w.elections, w.resyncs))
		}
	}
	if err := wl.check(ctx, b, out); err != nil {
		problems = append(problems, "check: "+err.Error())
	}
	var layers named
	if opt.trace {
		var err error
		if layers, err = perLayer(b, wl, m, tm); err != nil {
			problems = append(problems, "storage replay: "+err.Error())
		}
		if opt.spansOut != "" {
			if err := writeSpans(opt.spansOut, tm.spans); err != nil {
				return result{}, err
			}
		}
	}
	for _, p := range problems {
		fmt.Fprintln(out, "FAIL", p)
	}

	ops, failed := m.w.totals()
	if ops == 0 {
		return result{}, errors.New("no operation completed in the window")
	}
	res := result{Correct: len(problems) == 0, Attempted: ops, Failed: failed}
	e2e := endToEnd(m, setups)
	report(out, "end-to-end", e2e)
	if opt.trace {
		report(out, "per-layer", layers)
		res.Metrics = layers.metrics()
	} else {
		res.Metrics = e2e.metrics()
	}
	return res, nil
}

// filesystem names the medium that holds the replicas' WAL.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("fs-0x%x", st.Type)
}

// named is an ordered list of metrics with units.
type named []struct {
	name, unit string
	value      float64
}

func (n *named) add(name, unit string, v float64) {
	*n = append(*n, struct {
		name, unit string
		value      float64
	}{name, unit, v})
}

func (n named) metrics() map[string]metric {
	out := make(map[string]metric, len(n))
	for _, m := range n {
		if m.name[0] == '(' {
			continue // informational, not part of the result
		}
		out[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return out
}

func report(out io.Writer, title string, n named) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range n {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

// endToEnd derives the user-visible metrics of the untraced window.
// Names in parentheses are printed for the reader but are not part of
// the result: they are zero on some workloads.
func endToEnd(m measured, setups []float64) named {
	ops, failed := m.w.totals()
	var (
		rates, p50s, p99s, cpus []float64
		opLat                   []int64
	)
	kinds := func(s *opStats) []*latencies { return []*latencies{&s.read, &s.write, &s.cycle} }
	for i := 0; i+1 < len(m.w.edges); i++ {
		var sops, sfailed int64
		var ls []*latencies
		m.w.each(i, func(s *opStats) {
			sops += s.ops
			sfailed += s.failed
			ls = append(ls, kinds(s)...)
		})
		if sops == 0 {
			continue
		}
		lat := merge(ls...)
		from, to := m.w.edges[i], m.w.edges[i+1]
		rates = append(rates, float64(sops-sfailed)/to.at.Sub(from.at).Seconds())
		p50s = append(p50s, quantileUs(lat, 0.50))
		p99s = append(p99s, quantileUs(lat, 0.99))
		cpus = append(cpus, float64(to.cpu-from.cpu)/1e3/float64(sops))
		opLat = append(opLat, lat...)
	}
	var n named
	n.add("setup_s", "s", median(setups))
	n.add("ops_per_s", "1/s", median(rates))
	n.add("p50_us", "us", median(p50s))
	n.add("p99_us", "us", median(p99s))
	n.add("cpu_us_per_op", "us", median(cpus))
	n.add("allocs_per_op", "1", ratio(float64(m.to.proc.mallocs-m.from.proc.mallocs), float64(ops)))
	n.add("heap_mb", "MiB", m.heapMiB)
	n.add("(samples)", "count", float64(len(opLat)))
	n.add("(error_ratio)", "1", ratio(float64(failed), float64(ops)))
	for _, c := range []struct {
		name string
		pick func(*opStats) *latencies
	}{
		{"read", func(s *opStats) *latencies { return &s.read }},
		{"write", func(s *opStats) *latencies { return &s.write }},
		{"connect", func(s *opStats) *latencies { return &s.connect }},
		{"lock", func(s *opStats) *latencies { return &s.lock }},
	} {
		lat := m.w.merged(-1, c.pick)
		if len(lat) == 0 {
			continue
		}
		n.add("("+c.name+"_p50_us)", "us", quantileUs(lat, 0.50))
		n.add("("+c.name+"_p99_us)", "us", quantileUs(lat, 0.99))
		n.add("("+c.name+"_samples)", "count", float64(len(lat)))
	}
	return n
}

// seeded returns a deterministic generator for one stream of a run:
// the same seed and stream always give the same sequence.
func seeded(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

func writeJSON(out io.Writer, res result) error {
	enc, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(enc))
	return err
}
