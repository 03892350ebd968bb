package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
	"securekeeper/recipes"
)

const (
	// inFlight is the pipelined window per connection: the paper's
	// async setting of 200 pending requests over 5 threads.
	inFlight = 40
	// failedLatency stands in for a failed op's latency, so that a
	// failure misses every latency limit.
	failedLatency = time.Duration(math.MaxInt64)
	opTimeout     = 10 * time.Second
)

// xidOf is the last request id a traced connection sent, or 0.
func xidOf(tc *tracedConn) int64 {
	if tc == nil {
		return 0
	}
	return tc.lastXid.Load()
}

// --- sk-write ---------------------------------------------------------

// writeLoad keeps inFlight 1 KiB SetAsync calls outstanding on each of
// two connections, one on the leader and one on a follower, each on its
// own znode.
type writeLoad struct {
	seed    int64
	writers [2]*writer
}

const writePayload = 1024

type writer struct {
	replica   int
	path      string
	cl        *client.Client
	tc        *tracedConn
	body      []byte // seq stamp in the first 8 bytes, seeded filler after
	issued    int64
	acked     int64 // Sets acknowledged over all windows
	lastAcked int64 // seq of the last acknowledged Set
	failed    int64
}

// payload returns the body writer w sends with sequence number seq.
func (w *writer) payload(seq int64) []byte {
	binary.BigEndian.PutUint64(w.body, uint64(seq))
	return w.body
}

func (l *writeLoad) setup(ctx context.Context, b *bench) error {
	for i := range l.writers {
		w := &writer{replica: []int{b.leader, b.follower}[i], path: fmt.Sprintf("/skw/c%d", i),
			body: make([]byte, writePayload)}
		seeded(l.seed, int64(i)).Read(w.body[8:])
		l.writers[i] = w
		var err error
		if w.cl, w.tc, err = b.dial(w.replica); err != nil {
			return fmt.Errorf("connect writer %d: %w", i, err)
		}
	}
	cl := l.writers[0].cl
	if _, err := cl.Create(ctx, "/skw", nil, 0); err != nil {
		return fmt.Errorf("create /skw: %w", err)
	}
	for _, w := range l.writers {
		if _, err := w.cl.Create(ctx, w.path, w.payload(0), 0); err != nil {
			return fmt.Errorf("create %s: %w", w.path, err)
		}
	}
	return nil
}

func (l *writeLoad) redial(ctx context.Context, b *bench) error {
	for i, w := range l.writers {
		_ = w.cl.Close()
		var err error
		if w.cl, w.tc, err = b.dial(w.replica); err != nil {
			return fmt.Errorf("redial writer %d: %w", i, err)
		}
	}
	return nil
}

func (l *writeLoad) run(ctx context.Context, b *bench, stop <-chan struct{}, win *window) {
	done := make(chan struct{}, len(l.writers))
	for _, w := range l.writers {
		go func(w *writer) {
			defer func() { done <- struct{}{} }()
			w.loop(b, stop, win)
		}(w)
	}
	for range l.writers {
		<-done
	}
}

type pendingSet struct {
	f      *client.Future
	seq    int64
	start  time.Time
	before int64
}

// loop is one closed pipelined client: it issues a new Set each time
// the oldest outstanding one completes (a session's replies arrive in
// issue order), and drains once stop closes.
func (w *writer) loop(b *bench, stop <-chan struct{}, win *window) {
	rec := win.loop(w.replica == b.leader)
	var ring [inFlight]pendingSet
	head, n := 0, 0
	issue := func() {
		w.issued++
		before := xidOf(w.tc)
		start := time.Now()
		f := w.cl.SetAsync(w.path, w.payload(w.issued), -1)
		ring[(head+n)%inFlight] = pendingSet{f: f, seq: w.issued, start: start, before: before}
		n++
	}
	for n < inFlight {
		issue()
	}
	stopped := false
	for n > 0 {
		p := ring[head]
		ring[head] = pendingSet{}
		head, n = (head+1)%inFlight, n-1
		res := p.f.Wait()
		end := time.Now()
		s := rec.at()
		s.ops++
		if res.Err != nil {
			s.failed++
			w.failed++
			s.write.add(failedLatency)
		} else {
			w.acked++
			w.lastAcked = p.seq
			s.write.add(end.Sub(p.start))
		}
		if w.tc != nil {
			lo := w.tc.reqID(int32(p.before + 1))
			win.tr.record(span{kind: spanOp, id: lo, idHi: lo, start: int64(p.start.Sub(win.tr.epoch)), end: int64(end.Sub(win.tr.epoch))})
		}
		if !stopped {
			select {
			case <-stop:
				stopped = true
			default:
				issue()
			}
		}
	}
}

// check: each znode's version counts exactly its writer's acknowledged
// Sets and holds the last acknowledged payload; the replicas converge.
func (l *writeLoad) check(ctx context.Context, b *bench, _ io.Writer) error {
	for _, w := range l.writers {
		data, stat, err := w.cl.Get(ctx, w.path)
		if err != nil {
			return fmt.Errorf("read back %s: %w", w.path, err)
		}
		v := int64(stat.Version)
		if v < w.acked || v > w.acked+w.failed {
			return fmt.Errorf("%s: version %d, want %d acknowledged Sets (+%d failed)", w.path, v, w.acked, w.failed)
		}
		if w.failed == 0 && !bytes.Equal(data, w.payload(w.lastAcked)) {
			return fmt.Errorf("%s: data is not the last acknowledged payload (seq %d)", w.path, w.lastAcked)
		}
	}
	return b.converged(ctx)
}

func (l *writeLoad) writeBytes() int { return writePayload }

func (l *writeLoad) paths() []string {
	out := make([]string, 0, 8192)
	for len(out) < cap(out) {
		out = append(out, "/skw/c0", "/skw/c1")
	}
	return out
}

func (l *writeLoad) close() {
	for _, w := range l.writers {
		if w != nil && w.cl != nil {
			_ = w.cl.Close()
		}
	}
}

// --- sk-read-mix --------------------------------------------------------

const (
	mixKeys    = 16384 // 4x the entry enclave's path-chunk cache
	mixParents = 64
	mixRecord  = 128
	preloadBy  = 255 // writer id of preloaded records
)

func mixPath(k int) string { return fmt.Sprintf("/svc%02d/n%05d", k%mixParents, k) }

// mixRecordFor builds a self-describing 128-byte value: key id, writer,
// write sequence, filler derived from all three, and a checksum.
func mixRecordFor(dst []byte, key int, writer byte, seq int64) []byte {
	dst = dst[:mixRecord]
	binary.BigEndian.PutUint32(dst[0:4], uint32(key))
	dst[4] = writer
	binary.BigEndian.PutUint64(dst[5:13], uint64(seq))
	x := uint64(key)<<40 ^ uint64(writer)<<32 ^ uint64(seq)
	for i := 13; i < mixRecord-8; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		dst[i] = byte(x >> 56)
	}
	h := fnv.New64a()
	h.Write(dst[:mixRecord-8])
	binary.BigEndian.PutUint64(dst[mixRecord-8:], h.Sum64())
	return dst
}

// verifyRecord checks that data is an intact record for key.
func verifyRecord(key int, data []byte) error {
	if len(data) != mixRecord {
		return fmt.Errorf("key %d: value is %d bytes, want %d", key, len(data), mixRecord)
	}
	h := fnv.New64a()
	h.Write(data[:mixRecord-8])
	if h.Sum64() != binary.BigEndian.Uint64(data[mixRecord-8:]) {
		return fmt.Errorf("key %d: checksum mismatch", key)
	}
	if got := int(binary.BigEndian.Uint32(data[0:4])); got != key {
		return fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	var want [mixRecord]byte
	if !bytes.Equal(data, mixRecordFor(want[:], key, data[4], int64(binary.BigEndian.Uint64(data[5:13])))) {
		return fmt.Errorf("key %d: value does not match its writer and sequence", key)
	}
	return nil
}

// readMix preloads a service-registry tree and runs two synchronous
// clients (leader, follower) picking keys uniformly: 90 % Get, 10 % Set.
type readMix struct {
	seed          int64
	corruptExpect bool
	names         []string
	clients       [2]*mixClient
}

type mixClient struct {
	idx      int
	replica  int
	cl       *client.Client
	tc       *tracedConn
	keys     *rand.Rand
	ops      *rand.Rand
	seq      int64
	lastVer  []int32 // per key: the highest version this client saw
	buf      [mixRecord]byte
	bad      error // first failed check
	corrupt  bool  // expect the wrong key on the next Get
	failures int64
}

// keyStream and opStream number the per-client random streams.
func keyStream(c int) int64 { return 10 + int64(c) }
func opStream(c int) int64  { return 20 + int64(c) }

func (l *readMix) setup(ctx context.Context, b *bench) error {
	l.names = make([]string, mixKeys)
	for k := range l.names {
		l.names[k] = mixPath(k)
	}
	for i := range l.clients {
		c := &mixClient{idx: i, replica: []int{b.leader, b.follower}[i],
			keys: seeded(l.seed, keyStream(i)), ops: seeded(l.seed, opStream(i)),
			lastVer: make([]int32, mixKeys), corrupt: l.corruptExpect && i == 0}
		var err error
		if c.cl, c.tc, err = b.dial(c.replica); err != nil {
			return fmt.Errorf("connect client %d: %w", i, err)
		}
		l.clients[i] = c
	}
	return l.preload(ctx, l.clients[0].cl)
}

// preload creates the parents, then every key with at most inFlight
// creates outstanding.
func (l *readMix) preload(ctx context.Context, cl *client.Client) error {
	for p := 0; p < mixParents; p++ {
		if _, err := cl.Create(ctx, fmt.Sprintf("/svc%02d", p), nil, 0); err != nil {
			return fmt.Errorf("preload parent %d: %w", p, err)
		}
	}
	var ring [inFlight]*client.Future
	var buf [mixRecord]byte
	for k := 0; k < mixKeys+inFlight; k++ {
		slot := k % inFlight
		if f := ring[slot]; f != nil {
			if res := f.Wait(); res.Err != nil {
				return fmt.Errorf("preload %s: %w", l.names[k-inFlight], res.Err)
			}
		}
		ring[slot] = nil
		if k < mixKeys {
			ring[slot] = cl.CreateAsync(l.names[k], mixRecordFor(buf[:], k, preloadBy, 0), 0)
		}
	}
	return nil
}

func (l *readMix) redial(ctx context.Context, b *bench) error {
	for _, c := range l.clients {
		_ = c.cl.Close()
		var err error
		if c.cl, c.tc, err = b.dial(c.replica); err != nil {
			return fmt.Errorf("redial client %d: %w", c.idx, err)
		}
	}
	return nil
}

func (l *readMix) run(ctx context.Context, b *bench, stop <-chan struct{}, win *window) {
	done := make(chan struct{}, len(l.clients))
	for _, c := range l.clients {
		go func(c *mixClient) {
			defer func() { done <- struct{}{} }()
			l.loop(ctx, c, b, stop, win)
		}(c)
	}
	for range l.clients {
		<-done
	}
}

func (l *readMix) loop(ctx context.Context, c *mixClient, b *bench, stop <-chan struct{}, win *window) {
	rec := win.loop(c.replica == b.leader)
	for {
		select {
		case <-stop:
			return
		default:
		}
		k := c.keys.Intn(mixKeys)
		write := c.ops.Intn(10) == 0
		before := xidOf(c.tc)
		start := time.Now()
		var (
			stat wire.Stat
			data []byte
			err  error
		)
		if write {
			c.seq++
			stat, err = c.cl.Set(ctx, l.names[k], mixRecordFor(c.buf[:], k, byte(c.idx), c.seq), -1)
		} else {
			data, stat, err = c.cl.Get(ctx, l.names[k])
		}
		end := time.Now()
		d := end.Sub(start)
		s := rec.at()
		s.ops++
		if err != nil {
			s.failed++
			c.failures++
			d = failedLatency
		} else {
			c.observe(k, write, data, stat)
		}
		if write {
			s.write.add(d)
		} else {
			s.read.add(d)
		}
		win.root(spanOp, c.tc, before, start, end)
	}
}

// observe checks one successful reply: a read returns an intact record
// of its own key, and no key's version goes backwards for this client.
func (c *mixClient) observe(k int, write bool, data []byte, stat wire.Stat) {
	if c.bad != nil {
		return
	}
	if !write {
		expect := k
		if c.corrupt {
			expect, c.corrupt = (k+1)%mixKeys, false
		}
		if err := verifyRecord(expect, data); err != nil {
			c.bad = err
			return
		}
	}
	if stat.Version < c.lastVer[k] {
		c.bad = fmt.Errorf("client %d: key %d went back from version %d to %d", c.idx, k, c.lastVer[k], stat.Version)
		return
	}
	c.lastVer[k] = stat.Version
}

func (l *readMix) check(ctx context.Context, b *bench, _ io.Writer) error {
	for _, c := range l.clients {
		if c.bad != nil {
			return c.bad
		}
	}
	return b.converged(ctx)
}

func (l *readMix) writeBytes() int { return mixRecord }

func (l *readMix) paths() []string {
	keys := seeded(l.seed, keyStream(0))
	out := make([]string, 4*mixKeys)
	for i := range out {
		out[i] = mixPath(keys.Intn(mixKeys))
	}
	return out
}

func (l *readMix) close() {
	for _, c := range l.clients {
		if c != nil && c.cl != nil {
			_ = c.cl.Close()
		}
	}
}

// --- sk-lock-churn ------------------------------------------------------

const (
	lockRoots = 16
	lockLoops = 2
)

func lockRoot(r int) string { return fmt.Sprintf("/locks/l%02d", r) }

// lockChurn runs two loops of connect (round-robin over the replicas),
// NewLock on one of 16 roots, Acquire, Unlock and Close.
type lockChurn struct {
	seed     int64
	rngs     [lockLoops]*rand.Rand
	cycles   [lockLoops]int
	holds    [lockLoops][]hold
	enclaves int // live enclaves before any session was opened
}

// hold is one observed tenure: from Acquire returning to Unlock being
// called.
type hold struct {
	root     int
	from, to time.Time
	token    int64
}

func (l *lockChurn) setup(ctx context.Context, b *bench) error {
	l.enclaves = b.enclaveCount() // before any session exists
	cl, _, err := b.dial(b.leader)
	if err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	for r := 0; r < lockRoots && err == nil; r++ {
		err = recipes.EnsurePath(ctx, cl, lockRoot(r))
	}
	cl.Close()
	for j := range l.rngs {
		l.rngs[j] = seeded(l.seed, 100+int64(j))
	}
	return err
}

func (l *lockChurn) redial(context.Context, *bench) error { return nil }

func (l *lockChurn) run(ctx context.Context, b *bench, stop <-chan struct{}, win *window) {
	done := make(chan struct{}, lockLoops)
	for j := 0; j < lockLoops; j++ {
		go func(j int) {
			defer func() { done <- struct{}{} }()
			l.loop(ctx, j, b, stop, win)
		}(j)
	}
	for j := 0; j < lockLoops; j++ {
		<-done
	}
}

func (l *lockChurn) loop(ctx context.Context, j int, b *bench, stop <-chan struct{}, win *window) {
	rec := win.loop(false)
	for {
		select {
		case <-stop:
			return
		default:
		}
		replica := (j + l.cycles[j]) % b.cl.Size()
		l.cycles[j]++
		root := l.rngs[j].Intn(lockRoots)
		start := time.Now()
		err := l.cycle(ctx, b, j, replica, root, rec, win)
		s := rec.at()
		s.ops++
		if err != nil {
			s.failed++
			s.cycle.add(failedLatency)
		} else {
			s.cycle.add(time.Since(start))
		}
	}
}

// cycle is one lock cycle; the caller counts it.
func (l *lockChurn) cycle(ctx context.Context, b *bench, j, replica, root int, rec *loopRec, win *window) error {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	t0 := time.Now()
	cl, tc, err := b.dial(replica)
	if err != nil {
		return err
	}
	defer cl.Close()
	t1 := time.Now()
	rec.at().connect.add(t1.Sub(t0))
	win.root(spanConnect, tc, -1, t0, t1)

	lk, err := recipes.NewLock(ctx, cl, lockRoot(root))
	if err != nil {
		return err
	}
	before := xidOf(tc)
	t2 := time.Now()
	token, err := lk.Acquire(ctx)
	if err != nil {
		return err
	}
	t3 := time.Now()
	win.root(spanAcquire, tc, before, t2, t3)
	before = xidOf(tc)
	t4 := time.Now()
	err = lk.Unlock(ctx)
	t5 := time.Now()
	l.holds[j] = append(l.holds[j], hold{root: root, from: t3, to: t4, token: token})
	if err != nil {
		return err
	}
	win.root(spanUnlock, tc, before, t4, t5)
	rec.at().lock.add(t3.Sub(t2) + t5.Sub(t4))
	return cl.Close()
}

// check: no two tenures of one lock overlap; no candidate node is
// left; every session and its entry enclave is gone once the loops have
// closed them. Fencing tokens that do not rise from one holder to the
// next are reported, not failed: the lock guarantees mutual exclusion,
// and the token order is a known defect (see README.md).
func (l *lockChurn) check(ctx context.Context, b *bench, out io.Writer) error {
	var all []hold
	for _, hs := range l.holds {
		all = append(all, hs...)
	}
	inversions, err := checkHolds(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "NOTE fencing-token inversions: %d of %d tenures\n", inversions, len(all))
	cl, err := b.cl.Connect(b.leader, client.Options{})
	if err != nil {
		return fmt.Errorf("connect checker: %w", err)
	}
	for r := 0; r < lockRoots; r++ {
		kids, err := cl.Children(ctx, lockRoot(r))
		if err != nil {
			cl.Close()
			return fmt.Errorf("list %s: %w", lockRoot(r), err)
		}
		if len(kids) != 0 {
			cl.Close()
			return fmt.Errorf("%s: %d candidate nodes left after the window", lockRoot(r), len(kids))
		}
	}
	if err := cl.Close(); err != nil {
		return fmt.Errorf("close checker: %w", err)
	}
	if err := b.quiesce(ctx, l.enclaves); err != nil {
		return err
	}
	return b.converged(ctx)
}

// checkHolds fails if two tenures of one lock overlap, and counts the
// tenures whose fencing token is not larger than the previous holder's.
func checkHolds(holds []hold) (inversions int, err error) {
	byRoot := map[int][]hold{}
	for _, h := range holds {
		byRoot[h.root] = append(byRoot[h.root], h)
	}
	for r, hs := range byRoot {
		sort.Slice(hs, func(i, k int) bool { return hs[i].from.Before(hs[k].from) })
		for i := 1; i < len(hs); i++ {
			if hs[i].from.Before(hs[i-1].to) {
				return inversions, fmt.Errorf("%s: two holders overlap", lockRoot(r))
			}
			if hs[i].token <= hs[i-1].token {
				inversions++
			}
		}
	}
	return inversions, nil
}

func (l *lockChurn) writeBytes() int { return 0 } // candidates carry no data

func (l *lockChurn) paths() []string {
	rng := seeded(l.seed, 100)
	out := make([]string, 0, 8192)
	for len(out) < cap(out) {
		root := lockRoot(rng.Intn(lockRoots))
		out = append(out, root, root+"/lock-")
	}
	return out
}

func (l *lockChurn) close() {}

// --- shared checks ------------------------------------------------------

// converged syncs a session on every replica and waits until their
// trees have the same digest.
func (b *bench) converged(ctx context.Context) error {
	for i := 0; i < b.cl.Size(); i++ {
		cl, err := b.cl.Connect(i, client.Options{})
		if err != nil {
			return fmt.Errorf("connect replica %d: %w", i, err)
		}
		err = cl.Sync(ctx, "/")
		cl.Close()
		if err != nil {
			return fmt.Errorf("sync replica %d: %w", i, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var digests []uint64
		same := true
		for i := 0; i < b.cl.Size(); i++ {
			digests = append(digests, b.cl.Replica(i).Tree().Digest())
			same = same && digests[i] == digests[0]
		}
		if same {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica digests differ after sync: %x", digests)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (b *bench) enclaveCount() int {
	n := 0
	for i := 0; i < b.cl.Size(); i++ {
		n += b.cl.Runtime(i).EnclaveCount()
	}
	return n
}

// quiesce waits until no replica reports an open session and the SGX
// runtimes hold exactly the given number of enclaves.
func (b *bench) quiesce(ctx context.Context, enclaves int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		sessions := int64(0)
		for i := 0; i < b.cl.Size(); i++ {
			sessions += gauge(b.cl.Obs(i), "server_sessions")
		}
		n := b.enclaveCount()
		if sessions == 0 && n == enclaves {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions still open: server_sessions=%d, enclaves=%d want %d", sessions, n, enclaves)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
