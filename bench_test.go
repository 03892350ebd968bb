// Package securekeeper's root benchmark suite: one testing.B benchmark
// per paper table/figure (regenerating the same comparisons as
// cmd/skbench, expressed as per-operation costs), plus ablation
// benchmarks for the design choices called out in DESIGN.md.
//
// Run with: go test -bench=. -benchmem
package securekeeper_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/bench"
	"securekeeper/internal/client"
	"securekeeper/internal/core"
	"securekeeper/internal/enclave"
	"securekeeper/internal/kvstore"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// ctxbg is the background context for benchmark operations.
var ctxbg = context.Background()

// newBenchCluster boots a cluster tuned for benchmarking.
func newBenchCluster(b *testing.B, v core.Variant) *core.Cluster {
	b.Helper()
	c, err := core.NewCluster(core.Config{
		Variant:         v,
		Replicas:        3,
		TickInterval:    25 * time.Millisecond,
		ElectionTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	if _, err := c.WaitForLeader(10 * time.Second); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchOps measures one synchronous operation type end to end.
func benchOps(b *testing.B, v core.Variant, mode bench.OpMode, payloadSize int) {
	b.Helper()
	cluster := newBenchCluster(b, v)
	cl, err := cluster.Connect(0, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	payload := make([]byte, payloadSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := cl.Create(ctxbg, "/b", nil, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := cl.Create(ctxbg, "/b/target", payload, 0); err != nil {
		b.Fatal(err)
	}
	if mode == bench.ModeLs {
		for i := 0; i < 8; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/b/target/c%02d", i), nil, 0); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		switch mode {
		case bench.ModeGet:
			_, _, err = cl.Get(ctxbg, "/b/target")
		case bench.ModeSet:
			_, err = cl.Set(ctxbg, "/b/target", payload, -1)
		case bench.ModeCreate:
			_, err = cl.Create(ctxbg, fmt.Sprintf("/b/n%09d", i), payload, 0)
		case bench.ModeCreateSeq:
			_, err = cl.Create(ctxbg, "/b/s-", payload, wire.FlagSequential)
		case bench.ModeLs:
			_, err = cl.Children(ctxbg, "/b/target")
		case bench.ModeDelete:
			p := fmt.Sprintf("/b/d%09d", i)
			if _, cerr := cl.Create(ctxbg, p, nil, 0); cerr != nil {
				b.Fatal(cerr)
			}
			err = cl.Delete(ctxbg, p, -1)
		case bench.ModeMixed:
			if i%10 < 7 {
				_, _, err = cl.Get(ctxbg, "/b/target")
			} else {
				_, err = cl.Set(ctxbg, "/b/target", payload, -1)
			}
		}
		if err != nil {
			b.Fatalf("op %d: %v", i, err)
		}
	}
}

// forEachVariant runs a sub-benchmark per system variant.
func forEachVariant(b *testing.B, fn func(b *testing.B, v core.Variant)) {
	for _, v := range bench.Variants() {
		v := v
		b.Run(v.String(), func(b *testing.B) { fn(b, v) })
	}
}

// --- Figure 2: memory usage over time ---

func BenchmarkFig2MemoryUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := bench.Fig2(bench.MemoryConfig{
			Clients:   2,
			SampleDur: 20 * time.Millisecond,
			Samples:   6,
			StartAt:   2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("no series")
		}
	}
}

// --- Figure 3: EPC paging on random access ---

func BenchmarkFig3EPCPaging(b *testing.B) {
	for _, mb := range []int{8, 64, 128, 256} {
		mb := mb
		b.Run(fmt.Sprintf("enclaveMB=%d", mb), func(b *testing.B) {
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
			bufBytes := int64(mb) << 20
			e, err := rt.Create(sgx.Spec{CodeIdentity: "bench", CodeBytes: 4096, HeapBytes: bufBytes})
			if err != nil {
				b.Fatal(err)
			}
			defer rt.Destroy(e)
			pages := bufBytes / sgx.PageSize
			rng := rand.New(rand.NewSource(42))
			for p := int64(0); p < pages; p++ {
				e.TouchRandomPage(bufBytes, p, false) // warm
			}
			rt.Meter().Reset() // exclude warm-up from the virtual metric
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.TouchRandomPage(bufBytes, rng.Int63n(pages), false)
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- Figure 4: in-enclave KVS vs native ---

func BenchmarkFig4EnclaveKVS(b *testing.B) {
	for _, tc := range []struct {
		name      string
		inEnclave bool
		mb        int
	}{
		{"native-16MB", false, 16},
		{"sgx-16MB", true, 16},
		{"native-512MB", false, 512},
		{"sgx-512MB", true, 512},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
			var store *kvstore.Store
			var err error
			if tc.inEnclave {
				store, err = kvstore.NewEnclaveStore(rt, int64(tc.mb)<<20)
			} else {
				store, err = kvstore.NewNativeStore(rt, int64(tc.mb)<<20)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			store.Warm()
			rt.Meter().Reset() // exclude warm-up from the virtual metric
			rng := rand.New(rand.NewSource(42))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				store.Access(rng, i%10 < 3)
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- Figures 6a/6b: mixed workload ---

func BenchmarkFig6aSyncMixed(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, bench.ModeMixed, 1024)
	})
}

func BenchmarkFig6bAsyncMixed(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl, err := cluster.Connect(0, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		payload := make([]byte, 1024)
		if _, err := cl.Create(ctxbg, "/b", nil, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Create(ctxbg, "/b/t", payload, 0); err != nil {
			b.Fatal(err)
		}
		const window = 64
		b.ResetTimer()
		futures := make(chan *client.Future, window)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range futures {
				if res := f.Wait(); res.Err != nil {
					b.Errorf("async op: %v", res.Err)
					return
				}
			}
		}()
		for i := 0; i < b.N; i++ {
			if i%10 < 7 {
				futures <- cl.GetAsync("/b/t", false)
			} else {
				futures <- cl.SetAsync("/b/t", payload, -1)
			}
		}
		close(futures)
		wg.Wait()
	})
}

// --- Figures 7-10: per-operation throughput ---

func BenchmarkFig7Get(b *testing.B) {
	for _, payload := range []int{0, 1024, 4096} {
		payload := payload
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				benchOps(b, v, bench.ModeGet, payload)
			})
		})
	}
}

func BenchmarkFig8Set(b *testing.B) {
	for _, payload := range []int{0, 1024, 4096} {
		payload := payload
		b.Run(fmt.Sprintf("payload=%d", payload), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				benchOps(b, v, bench.ModeSet, payload)
			})
		})
	}
}

// BenchmarkFig8SetContended is the multi-client variant of Fig 8: n
// concurrent clients hammer Set on distinct nodes, exercising the
// sharded ztree across paths and the leader's proposal batching under
// write bursts. It reports propose-frames/txn measured at the leader:
// without batching the ratio equals the follower count (2 in a
// 3-replica ensemble); batching must push it below that.
func BenchmarkFig8SetContended(b *testing.B) {
	for _, clients := range []int{4, 16} {
		clients := clients
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			forEachVariant(b, func(b *testing.B, v core.Variant) {
				cluster := newBenchCluster(b, v)
				leaderIdx := cluster.LeaderIndex()
				if leaderIdx < 0 {
					b.Fatal("no leader")
				}
				payload := make([]byte, 1024)
				cls := make([]*client.Client, clients)
				for i := range cls {
					cl, err := cluster.Connect(0, client.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer cl.Close()
					cls[i] = cl
					if _, err := cl.Create(ctxbg, fmt.Sprintf("/c%d", i), payload, 0); err != nil {
						b.Fatal(err)
					}
				}
				statsBefore := cluster.Replica(leaderIdx).Peer().StatsSnapshot()
				var next atomic.Int64
				b.ReportAllocs()
				b.SetParallelism(clients) // clients goroutines even at GOMAXPROCS=1
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					id := int(next.Add(1)-1) % clients
					cl := cls[id]
					path := fmt.Sprintf("/c%d", id)
					for pb.Next() {
						if _, err := cl.Set(ctxbg, path, payload, -1); err != nil {
							b.Error(err)
							return
						}
					}
				})
				b.StopTimer()
				stats := cluster.Replica(leaderIdx).Peer().StatsSnapshot()
				txns := stats.Proposals - statsBefore.Proposals
				frames := stats.ProposeFrames - statsBefore.ProposeFrames
				if txns > 0 {
					b.ReportMetric(float64(frames)/float64(txns), "propose-frames/txn")
				}
			})
		})
	}
}

// BenchmarkPipelinedSet is the pipelined write path: SecureKeeper, one
// session on the leader and one on a follower, each keeping 40 SetAsync
// of 1 KiB in flight. ns/op and allocs/op are per Set. Unlike the
// synchronous Fig8Set, writes queue behind each other here, so it
// gates the leader's hand-off of a run of writes to the zab loop.
func BenchmarkPipelinedSet(b *testing.B) {
	const window = 40
	cluster := newBenchCluster(b, core.SecureKeeper)
	leader := cluster.LeaderIndex()
	if leader < 0 {
		b.Fatal("no leader")
	}
	payload := make([]byte, 1024)
	replicas := []int{leader, (leader + 1) % cluster.Size()}
	cls := make([]*client.Client, len(replicas))
	for i, idx := range replicas {
		cl, err := cluster.Connect(idx, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		cls[i] = cl
		if _, err := cl.Create(ctxbg, fmt.Sprintf("/p%d", i), payload, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i, cl := range cls {
		n := b.N / len(cls)
		if i == 0 {
			n += b.N % len(cls)
		}
		wg.Add(1)
		go func(cl *client.Client, path string, n int) {
			defer wg.Done()
			futures := make(chan *client.Future, window-1) // plus the one being awaited
			var drain sync.WaitGroup
			drain.Add(1)
			go func() {
				defer drain.Done()
				failed := false // keep draining so the producer never blocks
				for f := range futures {
					if res := f.Wait(); res.Err != nil && !failed {
						failed = true
						b.Error(res.Err)
					}
				}
			}()
			for j := 0; j < n; j++ {
				futures <- cl.SetAsync(path, payload, -1)
			}
			close(futures)
			drain.Wait()
		}(cl, fmt.Sprintf("/p%d", i), n)
	}
	wg.Wait()
}

// BenchmarkMixedReadWrite is the commit-processor-split workload: 8
// concurrent sessions each pipeline a 90/10 GET/SET mix against their
// own znode. Before the split, every read waited to reach the head of
// its session's FIFO queue, so each write's commit round trip stalled
// the nine reads pipelined behind it; with the split, reads execute on
// the session reader (or the resume pool after the write commits) and
// only the response *release* stays FIFO. Reads/sec is the headline
// metric; it should scale with GOMAXPROCS instead of flatlining.
func BenchmarkMixedReadWrite(b *testing.B) {
	const (
		sessions = 8
		window   = 32
	)
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		payload := make([]byte, 1024)
		cls := make([]*client.Client, sessions)
		for i := range cls {
			cl, err := cluster.Connect(i%cluster.Size(), client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			cls[i] = cl
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/mx%d", i), payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		var reads atomic.Int64
		per := b.N/sessions + 1
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(cl *client.Client, path string) {
				defer wg.Done()
				futures := make(chan *client.Future, window)
				var drain sync.WaitGroup
				drain.Add(1)
				go func() {
					defer drain.Done()
					// Keep consuming after an error: returning early
					// would leave the producer blocked on a full
					// channel and hang the benchmark instead of
					// failing it.
					failed := false
					for f := range futures {
						if res := f.Wait(); res.Err != nil && !failed {
							failed = true
							b.Error(res.Err)
						}
					}
				}()
				for i := 0; i < per; i++ {
					if i%10 == 9 {
						futures <- cl.SetAsync(path, payload, -1)
					} else {
						futures <- cl.GetAsync(path, false)
						reads.Add(1)
					}
				}
				close(futures)
				drain.Wait()
			}(cls[s], fmt.Sprintf("/mx%d", s))
		}
		wg.Wait()
		elapsed := time.Since(start)
		b.StopTimer()
		if secs := elapsed.Seconds(); secs > 0 {
			b.ReportMetric(float64(reads.Load())/secs, "reads/sec")
		}
	})
}

// BenchmarkObserverReadFanout measures what observer replicas buy on
// the read path. A fixed-rate write load runs against the leader while
// read sessions — a fixed number per ensemble member — pipeline GETs.
// The 3 voters stay fixed; only the observer count grows 0 -> 1 -> 2,
// so added read throughput (the reads/sec metric) is attributable to
// observers fanning reads out beyond the voting quorum — the ZooKeeper
// observer pitch: scale reads without deepening the commit quorum.
//
// Reads are served under the SecureKeeper entry-enclave cost model
// with latency applied and the crossing fee raised into sleepable
// territory, so every request pays a wall-clock service fee on its
// serving member instead of a busy-wait. That puts per-session
// throughput in the service-time-bound regime — the one observers are
// deployed for: each member sustains a bounded request rate, and every
// observer added is serving capacity the voters no longer provide.
func BenchmarkObserverReadFanout(b *testing.B) {
	const (
		voters            = 3
		sessionsPerMember = 2
		window            = 32
		writeEvery        = 5 * time.Millisecond
	)
	cost := sgx.DefaultCostModel()
	// Large enough that the meter sleeps the crossing off instead of
	// spinning: the fee must not consume CPU, or read capacity would be
	// core-bound and adding observers could never show up on 1-2 cores.
	cost.CrossingNs = 150_000
	for _, nObs := range []int{0, 1, 2} {
		nObs := nObs
		b.Run(fmt.Sprintf("observers=%d", nObs), func(b *testing.B) {
			cluster, err := core.NewCluster(core.Config{
				Variant:         core.SecureKeeper,
				Replicas:        voters,
				Observers:       nObs,
				SGXCost:         &cost,
				ApplySGXLatency: true,
				TickInterval:    25 * time.Millisecond,
				ElectionTimeout: 500 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(cluster.Close)
			leader, err := cluster.WaitForLeader(10 * time.Second)
			if err != nil {
				b.Fatal(err)
			}

			payload := make([]byte, 1024)
			wcl, err := cluster.Connect(leader, client.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer wcl.Close()
			if _, err := wcl.Create(ctxbg, "/fan", payload, 0); err != nil {
				b.Fatal(err)
			}

			// A fixed quota of read sessions per member, covering voters
			// AND observers, so serving capacity — not session count per
			// member — is what grows with the observer count. A Sync
			// barrier per session guarantees the serving member
			// (observers included) has replayed /fan before the clock
			// starts.
			readSessions := sessionsPerMember * cluster.Size()
			cls := make([]*client.Client, readSessions)
			for i := range cls {
				cl, err := cluster.Connect(i%cluster.Size(), client.Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				// A just-started observer rejects forwarded Syncs until
				// it adopts the leader; retry rather than measure a cold
				// start.
				deadline := time.Now().Add(10 * time.Second)
				for {
					if err = cl.Sync(ctxbg, "/fan"); err == nil {
						if _, _, err = cl.Get(ctxbg, "/fan"); err == nil {
							break
						}
					}
					if time.Now().After(deadline) {
						b.Fatalf("replica %d never served /fan: %v", i%cluster.Size(), err)
					}
					time.Sleep(5 * time.Millisecond)
				}
				cls[i] = cl
			}

			// Fixed-rate write load, identical across observer counts
			// (a free-running writer would self-throttle and vary the
			// interference between runs).
			writerStop := make(chan struct{})
			var writerDone sync.WaitGroup
			writerDone.Add(1)
			go func() {
				defer writerDone.Done()
				tick := time.NewTicker(writeEvery)
				defer tick.Stop()
				for {
					select {
					case <-writerStop:
						return
					case <-tick.C:
					}
					if _, err := wcl.Set(ctxbg, "/fan", payload, -1); err != nil {
						return
					}
				}
			}()

			var reads atomic.Int64
			per := b.N/readSessions + 1
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			var wg sync.WaitGroup
			for s := 0; s < readSessions; s++ {
				wg.Add(1)
				go func(cl *client.Client) {
					defer wg.Done()
					futures := make(chan *client.Future, window)
					var drain sync.WaitGroup
					drain.Add(1)
					go func() {
						defer drain.Done()
						failed := false
						for f := range futures {
							if res := f.Wait(); res.Err != nil && !failed {
								failed = true
								b.Error(res.Err)
							}
						}
					}()
					for i := 0; i < per; i++ {
						futures <- cl.GetAsync("/fan", false)
						reads.Add(1)
					}
					close(futures)
					drain.Wait()
				}(cls[s])
			}
			wg.Wait()
			elapsed := time.Since(start)
			b.StopTimer()
			close(writerStop)
			writerDone.Wait()
			if secs := elapsed.Seconds(); secs > 0 {
				b.ReportMetric(float64(reads.Load())/secs, "reads/sec")
			}
		})
	}
}

// BenchmarkMulti measures an N-op atomic transaction (one wire round
// trip, one zab proposal, one zxid) against its classic equivalent of
// N sequential Sets (BenchmarkMultiSequentialSets: N round trips, N
// proposals). The pair quantifies what the multi API buys on the
// agreement path for both the plaintext and enclave variants.
func BenchmarkMulti(b *testing.B) {
	const nOps = 8
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl, err := cluster.Connect(0, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		payload := make([]byte, 128)
		if _, err := cl.Create(ctxbg, "/m", nil, 0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nOps; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/m/k%d", i), payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			txn := cl.Txn()
			for j := 0; j < nOps; j++ {
				txn.Set(fmt.Sprintf("/m/k%d", j), payload, -1)
			}
			if _, err := txn.Commit(ctxbg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiSequentialSets is the baseline for BenchmarkMulti: the
// same N writes issued as N independent synchronous Sets.
func BenchmarkMultiSequentialSets(b *testing.B) {
	const nOps = 8
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl, err := cluster.Connect(0, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		payload := make([]byte, 128)
		if _, err := cl.Create(ctxbg, "/m", nil, 0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < nOps; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/m/k%d", i), payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < nOps; j++ {
				if _, err := cl.Set(ctxbg, fmt.Sprintf("/m/k%d", j), payload, -1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkFig9aCreate(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, bench.ModeCreate, 1024)
	})
}

func BenchmarkFig9bCreateSequential(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, bench.ModeCreateSeq, 1024)
	})
}

func BenchmarkFig10Ls(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		benchOps(b, v, bench.ModeLs, 64)
	})
}

// --- Figure 11: YCSB-style mix ---

func BenchmarkFig11YCSB(b *testing.B) {
	forEachVariant(b, func(b *testing.B, v core.Variant) {
		cluster := newBenchCluster(b, v)
		cl, err := cluster.Connect(0, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer cl.Close()
		const records = 32
		payload := make([]byte, 1024)
		if _, err := cl.Create(ctxbg, "/y", nil, 0); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/y/user%06d", i), payload, 0); err != nil {
				b.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(42))
		zipf := rand.NewZipf(rng, 1.1, 1.0, records-1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := fmt.Sprintf("/y/user%06d", zipf.Uint64())
			var err error
			if rng.Float64() < 0.5 {
				_, _, err = cl.Get(ctxbg, key)
			} else {
				_, err = cl.Set(ctxbg, key, payload, -1)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Figure 12: fault tolerance (time-to-recover) ---

func BenchmarkFig12LeaderFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cluster := func() *core.Cluster {
			c, err := core.NewCluster(core.Config{
				Variant:         core.Vanilla,
				Replicas:        3,
				TickInterval:    5 * time.Millisecond,
				ElectionTimeout: 60 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
			return c
		}()
		leader, err := cluster.WaitForLeader(5 * time.Second)
		if err != nil {
			b.Fatal(err)
		}
		survivor := (leader + 1) % 3
		cl, err := cluster.Connect(survivor, client.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Create(ctxbg, "/f", nil, 0); err != nil {
			b.Fatal(err)
		}

		b.StartTimer() // measure: kill leader -> first successful write
		cluster.StopReplica(leader)
		for {
			if _, err := cl.Create(ctxbg, fmt.Sprintf("/f/after-%d", i), nil, 0); err == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.StopTimer()
		_ = cl.Close()
		cluster.Close()
	}
}

// --- Tables ---

func BenchmarkTable2MessageSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table2("/app/config/database", 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3SLOC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table3("."); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1 is the aggregation of Figs 7-10; its per-op costs are covered
// by the figure benchmarks above. This bench regenerates the headline
// delta on a tiny scale.
func BenchmarkTable1OverheadSummary(b *testing.B) {
	scale := bench.QuickScale()
	scale.Duration = 80 * time.Millisecond
	scale.Warmup = 20 * time.Millisecond
	scale.SyncClients = 2
	for i := 0; i < b.N; i++ {
		delta, err := bench.OverheadSummary(scale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(delta*100, "sk-vs-tls-overhead-%")
	}
}

// --- Ablations (DESIGN.md) ---

// Ablation 1: per-chunk path encryption (supports getChildren) vs
// encrypting the whole path as one blob (which would break hierarchy).
func BenchmarkAblationPathChunkVsWhole(b *testing.B) {
	key := make([]byte, skcrypto.KeySize)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	path := "/app/config/service/instance"
	b.Run("per-chunk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPath(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("whole-path-blob", func(b *testing.B) {
		// Whole-path mode approximated by a single payload encryption
		// of the full path string (one AES-GCM call, no per-chunk IV).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPayload("/", []byte(path), false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 2: deterministic IV derivation (hash of path prefix) vs
// random IVs. Deterministic IVs are required for ciphertext
// addressability; the bench shows their cost is comparable.
func BenchmarkAblationDeterministicVsRandomIV(b *testing.B) {
	key := make([]byte, skcrypto.KeySize)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("deterministic-path", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPath("/node"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random-payload", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncryptPayload("/node", []byte("node"), false); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 3: the §5.1 pre-sized single ecall vs a two-call scheme
// (first call to learn the size, second to fetch the grown message).
func BenchmarkAblationBufferPresizeVsTwoCall(b *testing.B) {
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	grow := func(buf []byte, msgLen int) (int, error) {
		need := msgLen + 64
		if need > len(buf) {
			return 0, sgx.ErrBufferOverflow
		}
		for i := msgLen; i < need; i++ {
			buf[i] = byte(i)
		}
		return need, nil
	}
	e, err := rt.Create(sgx.Spec{
		CodeIdentity: "ablation", CodeBytes: 4096,
		Ecalls: map[string]sgx.EcallFunc{"grow": grow},
	})
	if err != nil {
		b.Fatal(err)
	}
	msg := make([]byte, 512)

	b.Run("presized-single-ecall", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf := make([]byte, len(msg)+enclave.GrowthHeadroom(len(msg)))
			copy(buf, msg)
			if _, err := e.Ecall("grow", buf, len(msg)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("two-ecalls", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// First call fails on exact-size buffer (learning the need),
			// second call carries the enlarged buffer.
			tight := make([]byte, len(msg))
			copy(tight, msg)
			_, _ = e.Ecall("grow", tight, len(msg))
			buf := make([]byte, len(msg)+128)
			copy(buf, msg)
			if _, err := e.Ecall("grow", buf, len(msg)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation 4: per-client entry enclaves vs one shared enclave. The
// shared enclave serializes its FIFO queue behind one mutex; per-client
// enclaves shard it (§6.5 discusses the trade-off).
func BenchmarkAblationSharedVsPerClientEnclave(b *testing.B) {
	const workers = 4
	setup := func(b *testing.B) (*sgx.Runtime, *enclave.KeyServer, *enclave.SealedKeyStore) {
		rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
		ks, err := enclave.NewKeyServer(sgx.MeasureCode(enclave.EntryCodeIdentity))
		if err != nil {
			b.Fatal(err)
		}
		ks.TrustPlatform(rt.QuoteVerificationKey())
		return rt, ks, enclave.NewSealedKeyStore()
	}
	msgFor := func(xid int32) []byte {
		return wire.MarshalPair(
			&wire.RequestHeader{Xid: xid, Op: wire.OpGetData},
			&wire.GetDataRequest{Path: "/shared/node"},
		)
	}

	b.Run("shared-enclave", func(b *testing.B) {
		rt, ks, store := setup(b)
		entry, err := enclave.NewEntry(rt)
		if err != nil {
			b.Fatal(err)
		}
		defer entry.Close()
		if err := enclave.ProvisionEntry(entry, ks, store); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := entry.ProcessRequest(msgFor(int32(w*per + i))); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
	b.Run("per-client-enclaves", func(b *testing.B) {
		rt, ks, store := setup(b)
		entries := make([]*enclave.Entry, workers)
		for w := range entries {
			entry, err := enclave.NewEntry(rt)
			if err != nil {
				b.Fatal(err)
			}
			defer entry.Close()
			if w == 0 {
				err = enclave.ProvisionEntry(entry, ks, store)
			} else {
				err = enclave.UnsealEntry(entry, store)
			}
			if err != nil {
				b.Fatal(err)
			}
			entries[w] = entry
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N/workers + 1
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := entries[w].ProcessRequest(msgFor(int32(i))); err != nil {
						b.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	})
}

// Ablation 5: sensitivity to the enclave-crossing cost — the virtual
// SGX cost per processed message as CrossingNs grows.
func BenchmarkAblationEcallCrossingCost(b *testing.B) {
	for _, crossing := range []float64{0, 2600, 10000} {
		crossing := crossing
		b.Run(fmt.Sprintf("crossingNs=%.0f", crossing), func(b *testing.B) {
			cost := sgx.DefaultCostModel()
			cost.CrossingNs = crossing
			rt := sgx.NewRuntime(sgx.EPCUsableBytes, cost, false)
			ks, err := enclave.NewKeyServer(sgx.MeasureCode(enclave.EntryCodeIdentity))
			if err != nil {
				b.Fatal(err)
			}
			ks.TrustPlatform(rt.QuoteVerificationKey())
			entry, err := enclave.NewEntry(rt)
			if err != nil {
				b.Fatal(err)
			}
			defer entry.Close()
			if err := enclave.ProvisionEntry(entry, ks, nil); err != nil {
				b.Fatal(err)
			}
			msg := wire.MarshalPair(
				&wire.RequestHeader{Xid: 1, Op: wire.OpGetData},
				&wire.GetDataRequest{Path: "/a/b"},
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := entry.ProcessRequest(msg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rt.Meter().VirtualNs()/float64(b.N), "virtual-ns/op")
		})
	}
}

// --- end-to-end secure channel cost (supports Table 1's TLS column) ---

func BenchmarkSecureChannelRecord(b *testing.B) {
	cluster := newBenchCluster(b, core.TLS)
	cl, err := cluster.Connect(0, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/sc", make([]byte, 1024), 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctxbg, "/sc"); err != nil {
			b.Fatal(err)
		}
	}
}
