package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"securekeeper/internal/obs"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/storage"
	"securekeeper/internal/zab"
	"securekeeper/internal/ztree"
)

// obsStat is one metric family summed over replicas (labels folded).
type obsStat struct {
	value int64
	count int64
	sum   float64 // histogram sum: seconds for latency histograms
}

type obsTotals map[string]obsStat

func readObs(reg *obs.Registry) []struct {
	Name  string
	Value *int64
	Count *int64
	Sum   *float64
} {
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		return nil
	}
	var ms []struct {
		Name  string
		Value *int64
		Count *int64
		Sum   *float64
	}
	_ = json.Unmarshal(buf.Bytes(), &ms) // WriteJSON output always parses
	return ms
}

func (t obsTotals) add(reg *obs.Registry) {
	for _, m := range readObs(reg) {
		s := t[m.Name]
		if m.Value != nil {
			s.value += *m.Value
		}
		if m.Count != nil {
			s.count += *m.Count
			s.sum += *m.Sum
		}
		t[m.Name] = s
	}
}

// gauge reads one family's value summed over its labels.
func gauge(reg *obs.Registry, name string) int64 {
	t := obsTotals{}
	t.add(reg)
	return t[name].value
}

// meanUs is a latency histogram's mean between two edges, from its sum
// and count (the buckets are powers of two, too coarse for quantiles).
func meanUs(from, to obsTotals, name string) float64 {
	return ratio((to[name].sum-from[name].sum)*1e6, float64(to[name].count-from[name].count))
}

// perLayer derives the per-layer metrics: counts from the public stats
// at the edges of the untraced window m, times from the spans of the
// traced window tm, and replays of the workload's own paths.
func perLayer(b *bench, wl workload, m, tm measured) (named, error) {
	ops, _ := m.w.totals()
	fops := float64(ops)
	tops, _ := tm.w.totals()
	tf := float64(tops)
	sp := analyse(tm.spans)
	var n named

	n.add("client.self_us_per_op", "us", ratio(sp.rootSelf, tf)/1e3)

	n.add("transport.handshake_us_per_connect", "us", ratio(sp.handshake, float64(sp.handshakes))/1e3)
	n.add("transport.frames_per_op", "1", ratio(float64(sp.frames), tf))
	n.add("transport.bytes_per_op", "B", ratio(float64(sp.frameBytes), tf))
	n.add("transport.send_us_per_op", "us", ratio(sp.send, tf)/1e3)
	n.add("transport.recv_us_per_op", "us", ratio(sp.recv, tf)/1e3)
	n.add("transport.server_wait_us_per_op", "us", ratio(sp.wait, tf)/1e3)

	n.add("enclave.ecalls_per_op", "1", ratio(float64(sp.ecalls), tf))
	n.add("enclave.ecall_us_per_op", "us", ratio(sp.ecallNs, tf)/1e3)
	n.add("enclave.request_ecall_mean_us", "us", ratio(sp.byEcall[ecallRequest].ns, float64(sp.byEcall[ecallRequest].n))/1e3)
	n.add("enclave.response_ecall_mean_us", "us", ratio(sp.byEcall[ecallResponse].ns, float64(sp.byEcall[ecallResponse].n))/1e3)
	n.add("enclave.sequence_ecalls_per_op", "1", ratio(float64(sp.byEcall[ecallSequence].n), tf))

	n.add("sgx.virtual_us_per_op", "us", ratio(m.to.virtualNs-m.from.virtualNs, fops)/1e3)
	n.add("sgx.epc_faults_per_op", "1", ratio(float64(m.to.epcFaults-m.from.epcFaults), fops))

	enc, dec, payload, treeNs, encPaths := replay(b, wl)
	n.add("skcrypto.encrypt_path_ns", "ns", enc)
	n.add("skcrypto.decrypt_path_ns", "ns", dec)
	n.add("skcrypto.payload_encrypt_ns", "ns", payload)

	fo, to := m.from.obs, m.to.obs
	n.add("server.submit_to_commit_mean_us", "us", meanUs(fo, to, "server_submit_to_commit_seconds"))
	n.add("server.apply_mean_us", "us", meanUs(fo, to, "server_apply_seconds"))
	n.add("server.commit_to_release_mean_us", "us", meanUs(fo, to, "server_commit_to_release_seconds"))
	for _, side := range []struct {
		name     string
		onLeader bool
	}{{"server.leader_write_p50_us", true}, {"server.follower_write_p50_us", false}} {
		var ls []*latencies
		for _, r := range m.w.loops {
			for j := range r.slices {
				if r.onLeader == side.onLeader {
					ls = append(ls, &r.slices[j].write)
				}
			}
		}
		n.add(side.name, "us", quantileUs(merge(ls...), 0.50))
	}

	var commits, proposals, frames int64
	for i := range tm.to.peers {
		commits = max(commits, tm.to.peers[i].Commits-tm.from.peers[i].Commits)
	}
	for i := range m.to.peers {
		proposals += m.to.peers[i].Proposals - m.from.peers[i].Proposals
		frames += m.to.peers[i].ProposeFrames - m.from.peers[i].ProposeFrames
	}
	n.add("zab.msgs_per_commit", "1", ratio(float64(sp.zabMsgs), float64(commits)))
	n.add("zab.bytes_per_commit", "B", ratio(float64(sp.zabBytes), float64(commits)))
	n.add("zab.propose_frames_per_txn", "1", ratio(float64(frames), float64(proposals)))
	n.add("zab.propose_to_quorum_ack_mean_us", "us", sp.proposeToAck/1e3)

	walDir := filepath.Join(b.opt.dataRoot, fmt.Sprintf("%s-%d-wal", b.opt.workload, os.Getpid()))
	st, err := replayStorage(walDir, wl, encPaths)
	n.add("storage.txns_per_fsync", "1", st.txnsPerFsync)
	n.add("storage.fsync_mean_us", "us", st.fsyncUs)
	n.add("storage.commit_wait_mean_us", "us", st.commitWaitUs)

	tree := b.cl.Replica(b.leader).Tree()
	n.add("ztree.get_ns", "ns", treeNs)
	n.add("ztree.nodes", "count", float64(tree.Count()))
	n.add("ztree.approx_mb", "MiB", float64(tree.ApproxBytes())/(1<<20))

	kops := fops / 1e3
	n.add("runtime.gc_per_kop", "1", ratio(float64(m.to.proc.numGC-m.from.proc.numGC), kops))
	n.add("runtime.gc_pause_us_per_kop", "us", ratio(float64(m.to.proc.pauseNs-m.from.proc.pauseNs)/1e3, kops))
	n.add("runtime.goroutines_delta", "count", float64(m.to.proc.goroutines-m.from.proc.goroutines))

	untraced := ratio(fops, m.elapsed.Seconds())
	traced := ratio(tf, tm.elapsed.Seconds())
	n.add("bench.trace_overhead_frac", "1", 1-ratio(traced, untraced))
	n.add("(traced_ops)", "count", tf)
	n.add("(spans)", "count", float64(len(tm.spans)))
	return n, err
}

// spanTotals is the trace reduced to per-layer sums (nanoseconds).
type spanTotals struct {
	rootSelf           float64
	handshake          float64
	handshakes         int64
	frames, frameBytes int64
	send, recv, wait   float64
	ecalls             int64
	ecallNs            float64
	byEcall            [4]struct {
		n  int64
		ns float64
	}
	zabMsgs, zabBytes int64
	proposeToAck      float64 // mean, ns
}

// analyse resolves parents and reduces the spans. A root covers the
// request ids id..idHi of its connection; its children are those
// requests' send and receive spans, the server wait between them, and
// the connection's handshake. Self time is the root's duration minus
// the union of its children.
func analyse(spans []span) spanTotals {
	var t spanTotals
	send := map[int64]int{}
	recv := map[int64]int{}
	handshake := map[int64]int{}
	var proposes, acks []int
	for i := range spans {
		s := &spans[i]
		d := float64(s.end - s.start)
		switch s.kind {
		case spanSend:
			send[s.id] = i
			t.frames++
			t.frameBytes += int64(s.bytes)
			t.send += d
		case spanRecv:
			recv[s.id] = i
			t.frames++
			t.frameBytes += int64(s.bytes)
			t.recv += d
		case spanHandshake:
			handshake[s.id] = i
			t.handshake += d
			t.handshakes++
		case spanEcall:
			t.ecalls++
			t.ecallNs += d
			t.byEcall[s.sub].n++
			t.byEcall[s.sub].ns += d
		case spanZabSend:
			t.zabMsgs += int64(s.fanout)
			t.zabBytes += int64(s.bytes) * int64(s.fanout)
			switch zab.Kind(s.sub) {
			case zab.KindPropose, zab.KindProposeBatch:
				proposes = append(proposes, i)
			case zab.KindAck:
				acks = append(acks, i)
			}
		}
	}
	for id, si := range send {
		if ri, ok := recv[id]; ok && spans[ri].start > spans[si].end {
			t.wait += float64(spans[ri].start - spans[si].end)
		}
	}
	for i := range spans {
		r := &spans[i]
		if r.kind < spanOp || r.kind > spanUnlock {
			continue
		}
		var kids [][2]int64
		child := func(j int, ok bool) {
			if ok {
				spans[j].parent = int32(i)
				kids = append(kids, [2]int64{spans[j].start, spans[j].end})
			}
		}
		if r.kind == spanConnect {
			j, ok := handshake[r.id]
			child(j, ok)
		}
		for id := r.id; id <= r.idHi; id++ {
			si, sok := send[id]
			ri, rok := recv[id]
			child(si, sok)
			child(ri, rok)
			if sok && rok {
				kids = append(kids, [2]int64{spans[si].end, spans[ri].start})
			}
		}
		t.rootSelf += float64(r.end-r.start) - covered(r.start, r.end, kids)
	}
	t.proposeToAck = proposeToAck(spans, proposes, acks)
	return t
}

// covered is the length of [lo, hi] covered by the union of intervals.
func covered(lo, hi int64, iv [][2]int64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return float64(total)
}

// proposeToAck is the mean time from the leader's first PROPOSE send of
// a zxid to the first follower ACK send covering it (ACKs carry the
// follower's cumulative frontier). With the leader's own vote, that
// ACK completes a quorum of a 3-voter ensemble.
func proposeToAck(spans []span, proposes, acks []int) float64 {
	type ev struct {
		at     int64
		lo, hi int64
		ack    bool
	}
	var evs []ev
	for _, i := range proposes {
		evs = append(evs, ev{at: spans[i].start, lo: spans[i].id, hi: spans[i].idHi})
	}
	for _, i := range acks {
		evs = append(evs, ev{at: spans[i].start, hi: spans[i].id, ack: true})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	var pending []ev // unacknowledged zxid ranges in proposal order
	var seen int64   // highest zxid proposed so far
	var sum float64
	var n int64
	for _, e := range evs {
		if !e.ack {
			if e.hi > seen {
				pending = append(pending, ev{at: e.at, lo: max(e.lo, seen+1), hi: e.hi})
				seen = e.hi
			}
			continue
		}
		for len(pending) > 0 && pending[0].lo <= e.hi {
			p := &pending[0]
			top := min(p.hi, e.hi)
			k := top - p.lo + 1
			sum += float64(e.at-p.at) * float64(k)
			n += k
			if top == p.hi {
				pending = pending[1:]
			} else {
				p.lo = top + 1
			}
		}
	}
	return ratio(sum, float64(n))
}

// replay times the storage codec and the tree on the workload's own
// path sequence: path encryption and decryption as the entry enclave
// does them, 1 KiB payload sealing, and tree lookups of the encrypted
// paths on the leader.
func replay(b *bench, wl workload) (encNs, decNs, payloadNs, getNs float64, enc []string) {
	tr := b.cl.Replica(b.leader).Tree()
	codec := b.cl.StorageCodec()
	paths := wl.paths()
	enc = make([]string, len(paths))
	for i, p := range paths { // first pass fills the chunk cache
		enc[i], _ = codec.EncryptPath(p)
	}
	start := time.Now()
	for i, p := range paths {
		enc[i], _ = codec.EncryptPath(p)
	}
	encNs = float64(time.Since(start).Nanoseconds()) / float64(len(paths))
	start = time.Now()
	for _, e := range enc {
		_, _ = codec.DecryptPath(e)
	}
	decNs = float64(time.Since(start).Nanoseconds()) / float64(len(enc))

	payload := make([]byte, writePayload)
	const seals = 4096
	start = time.Now()
	for i := 0; i < seals; i++ {
		_, _ = codec.EncryptPayload(paths[i%len(paths)], payload, false)
	}
	payloadNs = float64(time.Since(start).Nanoseconds()) / seals

	for _, e := range enc {
		_, _, _ = tr.GetDataRef(e)
	}
	const passes = 3
	start = time.Now()
	for p := 0; p < passes; p++ {
		for _, e := range enc {
			_, _, _ = tr.GetDataRef(e)
		}
	}
	getNs = float64(time.Since(start).Nanoseconds()) / float64(passes*len(enc))
	return encNs, decNs, payloadNs, getNs, enc
}

type storageReplay struct {
	txnsPerFsync, fsyncUs, commitWaitUs float64
}

// replayStorage writes the workload's write stream — its encrypted
// paths, values of its size sealed as the entry enclave seals them —
// through a fresh persister in dir for one second, with two pipelined
// clients' worth of records outstanding. That is a durable replica's
// WAL, CRC framing, group commit and fsync on the disk under the
// checkout, which the measured cluster keeps off its write path.
func replayStorage(dir string, wl workload, paths []string) (storageReplay, error) {
	reg := obs.NewRegistry()
	p, _, err := storage.Recover(storage.PersisterConfig{Dir: dir, Tree: ztree.New(), Obs: reg})
	if err != nil {
		return storageReplay{}, err
	}
	defer os.RemoveAll(dir)
	var data []byte
	if n := wl.writeBytes(); n > 0 {
		data = make([]byte, skcrypto.EncryptedPayloadLen(n))
	}
	slots := make(chan struct{}, 2*inFlight) // a semaphore: records outstanding
	var failed atomic.Int64
	deadline := time.Now().Add(time.Second)
	for zxid := int64(1); time.Now().Before(deadline); zxid++ {
		slots <- struct{}{}
		txn := ztree.Txn{Zxid: zxid, Type: ztree.TxnSetData, Path: paths[int(zxid)%len(paths)], Data: data, Version: -1}
		p.Record(&txn, func(err error) {
			if err != nil {
				failed.Add(1)
			}
			<-slots
		})
	}
	err = p.Flush()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err == nil && failed.Load() > 0 {
		err = fmt.Errorf("storage replay: %d records failed", failed.Load())
	}
	st := p.Stats()
	t := obsTotals{}
	t.add(reg)
	none := obsTotals{}
	return storageReplay{
		txnsPerFsync: ratio(float64(st.Records), float64(st.Fsyncs)),
		fsyncUs:      meanUs(none, t, "storage_fsync_seconds"),
		commitWaitUs: meanUs(none, t, "storage_commit_wait_seconds"),
	}, err
}
