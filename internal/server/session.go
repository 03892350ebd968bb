package server

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"securekeeper/internal/obs"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// reqState tracks a request through the split pipeline. Writes go
// statePending -> stateDone (commit or abort). Reads either execute
// immediately (statePending -> stateDone on the reader goroutine) or
// park behind an uncommitted same-session write
// (statePending -> stateParked -> stateDone via the resume pool).
type reqState int32

const (
	statePending reqState = iota // submitted, not yet executed/committed
	stateParked                  // read waiting on an earlier uncommitted write
	stateDone                    // response ready for in-order release
)

// inflightReq is one request in a session's FIFO release queue.
type inflightReq struct {
	xid  int32
	op   wire.OpCode
	body []byte
	// seq is the session write watermark attached to this request: for
	// a write, its position in the session's write order (1-based); for
	// a read, the seq of the last write submitted before it — the read
	// may execute only once that write has completed (its barrier).
	seq int64

	// Pipeline-stage timestamps (obs.Now ns), stamped for writes only.
	// submitNs is set once by the reader goroutine before the entry is
	// shared; commitNs is written by the single writeDone call before
	// complete() and read by the writer goroutine after result(), both
	// under e.mu, so the accesses are ordered.
	submitNs int64
	commitNs int64

	mu    sync.Mutex
	state reqState
	resp  []byte
}

func (e *inflightReq) complete(resp []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == stateDone {
		return
	}
	e.state = stateDone
	e.resp = resp
}

func (e *inflightReq) fail(code wire.ErrCode) {
	e.complete(errorReply(e.xid, 0, code))
}

func (e *inflightReq) park() {
	e.mu.Lock()
	if e.state == statePending {
		e.state = stateParked
	}
	e.mu.Unlock()
}

func (e *inflightReq) result() ([]byte, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resp, e.state == stateDone
}

// Batch caps: the reader hands at most this many messages (and bytes,
// past the first message) to one Interceptor call, and the writer
// releases at most this many per call.
const (
	maxBatchMsgs  = 16
	maxBatchBytes = 64 << 10
)

// watchEventBuffer bounds the out-of-band watch notification queue per
// session; beyond it, events are dropped (watches are one-shot hints,
// and an unresponsive client must not stall the commit path).
const watchEventBuffer = 1024

// session serializes one client connection with ZooKeeper's
// commit-processor split: *execution order* and *release order* are
// separate concerns.
//
//   - The reader goroutine decodes and classifies requests. A read
//     executes immediately, on the reader goroutine, whenever the
//     session has no earlier write still in flight (committedSeq ==
//     writeSeq); only reads that genuinely trail an uncommitted write
//     of this session park until that write completes, at which point
//     the replica's resume pool drains them in submission order.
//   - The writer goroutine is a pure in-order releaser: it sends
//     responses strictly in request order (ZooKeeper's per-session FIFO
//     guarantee, which the entry enclave's response-matching queue
//     relies on, §4.2) and interleaves watch events. It never executes
//     anything.
//
// The watermark rule: writeSeq counts writes submitted on the session,
// committedSeq the writes whose fate is known (committed or aborted).
// A read's barrier is the writeSeq at its submission; it may execute
// once committedSeq has reached that barrier, which preserves
// read-after-own-write without serializing reads behind the write's
// response release.
type session struct {
	id    int64
	rep   *Replica
	conn  transport.Conn
	icept Interceptor

	mu     sync.Mutex
	queue  []*inflightReq // release FIFO (all ops, submission order)
	parked []*inflightReq // reads awaiting execution, submission order
	// draining marks that a resume-pool worker is currently executing
	// this session's eligible parked reads; at most one drains a given
	// session at a time, keeping same-session read execution ordered.
	// drainDone is broadcast whenever draining clears, so teardown can
	// wait for an in-flight drain (see awaitDrain).
	draining  bool
	drainDone *sync.Cond
	writeSeq  int64 // writes submitted on this session
	// committedSeq is the CONTIGUOUS completion watermark: every write
	// with seq <= committedSeq has a known fate. Writes can complete
	// out of order (a later forwarded write may be rejected while an
	// earlier one is still with the leader); those park in doneAhead
	// until the gap closes — advancing past a still-pending write would
	// let reads barriered on it run against pre-own-write state.
	committedSeq int64
	doneAhead    map[int64]struct{}
	closed       bool

	kickCh chan struct{}
	// events is the watch notification queue, FIFO and capped at
	// watchEventBuffer. It has its own lock because ztree calls Notify
	// during apply, which must not wait on the session's mu.
	evMu    sync.Mutex
	events  []wire.WatcherEvent
	stopped chan struct{}
	writerD chan struct{}

	// Fixed-capacity batch scratch, owned by the reader and the writer
	// goroutine respectively; part of the session allocation.
	recvBuf [maxBatchMsgs][]byte
	sendBuf [maxBatchMsgs][]byte
}

func newSession(r *Replica, id int64, conn transport.Conn, icept Interceptor) *session {
	s := &session{
		id:      id,
		rep:     r,
		conn:    conn,
		icept:   icept,
		kickCh:  make(chan struct{}, 1),
		stopped: make(chan struct{}),
		writerD: make(chan struct{}),
	}
	s.drainDone = sync.NewCond(&s.mu)
	return s
}

// Notify implements ztree.Watcher: enqueue without blocking on the
// client. A full queue drops the event.
func (s *session) Notify(ev wire.WatcherEvent) {
	s.evMu.Lock()
	full := len(s.events) >= watchEventBuffer
	if !full {
		s.events = append(s.events, ev)
	}
	s.evMu.Unlock()
	if !full {
		s.kick()
	}
}

// takeEvents pops up to maxBatchMsgs queued watch events, encoded as
// event frames, into dst.
func (s *session) takeEvents(dst [][]byte) [][]byte {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	n := min(len(s.events), maxBatchMsgs-len(dst))
	for i := range n {
		hdr := wire.ReplyHeader{Xid: wire.WatcherEventXid, Err: wire.ErrOK}
		dst = append(dst, wire.MarshalPair(&hdr, &s.events[i]))
	}
	clear(s.events[:n])
	s.events = s.events[n:]
	if len(s.events) == 0 {
		s.events = nil
	}
	return dst
}

// kick wakes the writer goroutine.
func (s *session) kick() {
	select {
	case s.kickCh <- struct{}{}:
	default:
	}
}

// shutdown closes the connection and stops the writer.
func (s *session) shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopped)
	_ = s.conn.Close()
}

// run processes the session until the connection ends. It blocks.
func (s *session) run() error {
	go s.writer()
	err := s.reader()
	s.shutdown()
	<-s.writerD
	return err
}

// reader receives frames — every frame already queued on the
// connection, when it supports batching — and submits them in order.
func (s *session) reader() error {
	for {
		frames, err := transport.RecvFrames(s.conn, s.recvBuf[:0], maxBatchMsgs)
		// Frames received before an error are handled first.
		stop, herr := s.handleFrames(frames)
		clear(s.recvBuf[:len(frames)])
		if herr != nil || stop {
			return herr
		}
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("server: session %d recv: %w", s.id, err)
		}
	}
}

// handleFrames passes frames through the interceptor in runs capped by
// maxBatchBytes and submits every message it returns, in order. stop
// reports that the session ended (closed, or a close request was read).
func (s *session) handleFrames(frames [][]byte) (stop bool, err error) {
	for len(frames) > 0 {
		n := batchLen(frames)
		msgs, ierr := s.icept.OnRequests(frames[:n])
		for _, msg := range msgs {
			if stop, err := s.submit(msg); stop || err != nil {
				return true, err
			}
		}
		if ierr != nil {
			// The interceptor (entry enclave) rejected a message:
			// protocol violation or integrity failure; drop the client.
			return true, fmt.Errorf("server: session %d intercept: %w", s.id, ierr)
		}
		frames = frames[n:]
	}
	return false, nil
}

// batchLen returns how many leading messages form one batch: at most
// maxBatchMsgs, and at most maxBatchBytes unless the first alone is
// larger.
func batchLen(msgs [][]byte) int {
	n, size := 0, 0
	for n < len(msgs) && n < maxBatchMsgs {
		if n > 0 && size+len(msgs[n]) > maxBatchBytes {
			break
		}
		size += len(msgs[n])
		n++
	}
	return n
}

// submit classifies one intercepted request and starts its execution:
// writes go to the replica pipeline, reads run now or park behind an
// uncommitted write of this session. stop reports that the session
// ended.
func (s *session) submit(msg []byte) (stop bool, err error) {
	var hdr wire.RequestHeader
	d := wire.NewDecoder(msg)
	if err := hdr.Deserialize(d); err != nil {
		return true, fmt.Errorf("server: session %d header: %w", s.id, err)
	}
	body := msg[d.Offset():]

	entry := &inflightReq{xid: hdr.Xid, op: hdr.Op, body: body}
	// SYNC is agreed like a write: its commit is the flush point.
	isWrite := hdr.Op.IsWrite() || hdr.Op == wire.OpSync
	if isWrite {
		entry.submitNs = obs.Now()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return true, nil
	}
	s.queue = append(s.queue, entry)
	var runNow bool
	if isWrite {
		s.writeSeq++
		entry.seq = s.writeSeq
	} else {
		entry.seq = s.writeSeq
		// Execute immediately unless an earlier write of this
		// session is still uncommitted, or parked reads are still
		// draining (the drain worker may be mid-execution of an
		// earlier read even when parked is empty; overtaking it
		// would reorder same-session read execution).
		runNow = s.committedSeq == s.writeSeq && len(s.parked) == 0 && !s.draining
		if !runNow {
			entry.park()
			s.parked = append(s.parked, entry)
		}
	}
	s.mu.Unlock()

	switch {
	case isWrite:
		s.rep.handleWrite(s, entry)
	case runNow:
		entry.complete(s.rep.handleRead(s, entry))
		s.kick()
	}
	// Stop reading after a close; the writer drains its response.
	return hdr.Op == wire.OpCloseSession, nil
}

// writeDone records the fate of one of this session's writes: committed
// (resp is the agreed reply, possibly an application-level error like
// BADVERSION) or aborted (the write will never commit here — leader
// change, forward rejection, shutdown — and resp carries the error
// reply, typically CONNECTIONLOSS). It advances the commit watermark
// and deals with parked reads: on a commit, eligible reads are handed
// to the resume pool; on an abort, reads that trailed the aborted write
// fail with CONNECTIONLOSS — their read-after-own-write baseline is
// gone (the write's fate is unknown), so completing them with data
// could silently violate the session guarantee.
func (s *session) writeDone(entry *inflightReq, resp []byte, aborted bool) {
	if entry.submitNs > 0 {
		now := obs.Now()
		entry.commitNs = now
		if !aborted {
			s.rep.submitToCommit.Observe(now - entry.submitNs)
		}
	}
	entry.complete(resp)

	var failed []*inflightReq
	schedule := false
	s.mu.Lock()
	// Advance the watermark contiguously: a completion above a gap
	// (an earlier write still pending) parks in doneAhead so reads
	// barriered on the pending write keep waiting for its real fate.
	if entry.seq == s.committedSeq+1 {
		s.committedSeq++
		for len(s.doneAhead) > 0 {
			if _, ok := s.doneAhead[s.committedSeq+1]; !ok {
				break
			}
			delete(s.doneAhead, s.committedSeq+1)
			s.committedSeq++
		}
	} else if entry.seq > s.committedSeq {
		if s.doneAhead == nil {
			s.doneAhead = make(map[int64]struct{})
		}
		s.doneAhead[entry.seq] = struct{}{}
	}
	if aborted && len(s.parked) > 0 {
		// Fail exactly the reads whose barrier includes the aborted
		// write (barrier >= its seq): their read-after-own-write
		// baseline is gone. Reads behind earlier still-pending writes
		// keep waiting for those writes' own fate.
		kept := s.parked[:0]
		for _, e := range s.parked {
			if e.seq >= entry.seq {
				failed = append(failed, e)
			} else {
				kept = append(kept, e)
			}
		}
		for i := len(kept); i < len(s.parked); i++ {
			s.parked[i] = nil
		}
		s.parked = kept
	}
	if !s.closed && !s.draining && len(s.parked) > 0 && s.parked[0].seq <= s.committedSeq {
		s.draining = true
		schedule = true
	}
	s.mu.Unlock()

	for _, e := range failed {
		e.fail(wire.ErrConnectionLoss)
	}
	if schedule {
		s.rep.scheduleResume(s)
	}
	s.kick()
}

// drainParked executes this session's eligible parked reads in
// submission order. Runs on a resume-pool worker; at most one worker
// drains a session at a time (the draining flag), so same-session read
// execution never reorders.
func (s *session) drainParked() {
	for {
		s.mu.Lock()
		if s.closed || len(s.parked) == 0 || s.parked[0].seq > s.committedSeq {
			s.draining = false
			s.drainDone.Broadcast()
			s.mu.Unlock()
			return
		}
		e := s.parked[0]
		s.parked[0] = nil
		s.parked = s.parked[1:]
		if len(s.parked) == 0 {
			s.parked = nil // let the backing array go
		}
		s.mu.Unlock()

		e.complete(s.rep.handleRead(s, e))
		s.kick()
	}
}

// awaitDrain blocks until no resume-pool worker is executing this
// session's parked reads. Teardown calls it (after shutdown, which
// stops new drains from being scheduled) before deregistering the
// session's watches: a worker mid-handleRead could otherwise
// re-register a watch for the dead session after RemoveWatcher ran.
func (s *session) awaitDrain() {
	s.mu.Lock()
	for s.draining {
		s.drainDone.Wait()
	}
	s.mu.Unlock()
}

// writer is the in-order releaser: it pops the run of completed
// responses at the head of the FIFO queue and releases it with one
// interceptor call, interleaving watch events. It executes nothing —
// execution happens on the reader goroutine or the resume pool — so
// release order (which the entry enclave's response-matching FIFO
// depends on) is decoupled from execution order.
func (s *session) writer() {
	defer close(s.writerD)
	for {
		// Release due responses.
		for {
			resps, closing := s.takeDone(s.sendBuf[:0])
			if len(resps) == 0 {
				break // head still executing or awaiting commit; wait for kick
			}
			ok := s.release(resps)
			clear(s.sendBuf[:len(resps)])
			if !ok {
				return
			}
			if closing {
				s.shutdown()
				return
			}
		}
		// Release watch events.
		for {
			evs := s.takeEvents(s.sendBuf[:0])
			if len(evs) == 0 {
				break
			}
			ok := s.release(evs)
			clear(s.sendBuf[:len(evs)])
			if !ok {
				return
			}
		}
		select {
		case <-s.kickCh:
		case <-s.stopped:
			return
		}
	}
}

// takeDone pops the run of completed responses at the head of the FIFO
// queue into dst — at most maxBatchMsgs, and at most maxBatchBytes
// unless the first alone is larger. closing reports that the run ends
// with the session's close reply.
func (s *session) takeDone(dst [][]byte) (resps [][]byte, closing bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, k := 0, 0
	for k < len(s.queue) && len(dst) < maxBatchMsgs {
		head := s.queue[k]
		resp, done := head.result()
		if !done || (k > 0 && size+len(resp) > maxBatchBytes) {
			break
		}
		if head.commitNs > 0 {
			s.rep.commitToRelease.Observe(obs.Now() - head.commitNs)
		}
		dst = append(dst, resp)
		size += len(resp)
		k++
		if head.op == wire.OpCloseSession {
			closing = true
			break
		}
	}
	clear(s.queue[:k])
	s.queue = s.queue[k:]
	if len(s.queue) == 0 {
		s.queue = nil
	}
	return dst, closing
}

// release applies the response interceptor to a run of messages and
// writes the frames in order. Returns false when the session is
// finished.
func (s *session) release(resps [][]byte) bool {
	out, ierr := s.icept.OnResponses(resps)
	for _, m := range out {
		if err := s.conn.SendFrame(m); err != nil {
			return false
		}
	}
	if ierr != nil {
		// The entry enclave refused to release a response (e.g.
		// decryption failed in an unrecoverable way): kill the session
		// rather than leak anything.
		s.shutdown()
		return false
	}
	return true
}
