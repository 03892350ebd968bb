package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/enclave"
	"securekeeper/internal/obs"
	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// spanKind names a span. Root spans are the load generator's own calls;
// every other kind is recorded around a call into one layer.
type spanKind uint8

const (
	spanOp        spanKind = iota + 1 // root: one Get or Set
	spanConnect                       // root: session set-up
	spanAcquire                       // root: Lock.Acquire
	spanUnlock                        // root: Lock.Unlock
	spanHandshake                     // transport: secure-channel handshake
	spanSend                          // transport: SendFrame on the secure channel
	spanRecv                          // transport: sealed frame arrival until RecvFrame returns
	spanEcall                         // enclave: one crossing (ecall name in sub)
	spanZabSend                       // zab: one peer-transport send (message kind in sub)
)

var spanNames = map[spanKind]string{
	spanOp: "op", spanConnect: "connect", spanAcquire: "lock.acquire", spanUnlock: "lock.unlock",
	spanHandshake: "transport.handshake", spanSend: "transport.send", spanRecv: "transport.recv",
	spanEcall: "enclave.ecall", spanZabSend: "zab.send",
}

// Ecall names, stored in span.sub.
const (
	ecallOther uint8 = iota
	ecallRequest
	ecallResponse
	ecallSequence
)

var ecallKinds = map[string]uint8{
	enclave.EcallRequest:  ecallRequest,
	enclave.EcallResponse: ecallResponse,
	enclave.EcallSequence: ecallSequence,
}

// span is one timed interval. Client spans carry the request id
// conn<<32|xid (a root covers the ids id..idHi); zab spans carry the
// first and last zxid of the message; ecall spans carry none, because
// the enclave runs on server goroutines the load generator cannot see.
// parent is resolved after the run: the index of the covering root
// span, or -1.
type span struct {
	start, end int64 // ns since the tracer's epoch
	id, idHi   int64
	parent     int32
	bytes      int32
	kind       spanKind
	sub        uint8 // ecall name or zab message kind
	fanout     uint8 // destinations of a zab send
	peer       uint8 // sending replica of a zab send
}

// maxSpans bounds the in-memory trace (~48 MB); the traced window ends
// early once it is full.
const maxSpans = 1 << 20

// tracer keeps spans in a preallocated buffer while on. Recording takes
// the read side of mu so that stop can wait out in-flight writers.
type tracer struct {
	epoch    time.Time
	on       atomic.Bool
	mu       sync.RWMutex
	next     atomic.Int64
	spans    []span
	full     chan struct{}
	fullOnce sync.Once
	conns    atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), full: make(chan struct{})}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.on.Load() {
		return
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.fullOnce.Do(func() { close(t.full) })
		return
	}
	s.parent = -1
	t.spans[i] = s
}

// start turns recording on; the span buffer is allocated on first use.
func (t *tracer) start() {
	t.mu.Lock()
	if t.spans == nil {
		t.spans = make([]span, maxSpans)
	}
	t.mu.Unlock()
	t.on.Store(true)
}

// stop turns recording off and returns the spans recorded so far.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// writeSpans writes spans as JSON lines, parents resolved.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, `{"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"id":%d,"id_hi":%d,"sub":%d,"bytes":%d,"fanout":%d,"peer":%d}`+"\n",
			spanNames[s.kind], s.start, s.end, s.parent, s.id, s.idHi, s.sub, s.bytes, s.fanout, s.peer)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// observeEcalls routes a runtime's enclave crossings into the trace.
// It replaces the host's metrics hook for the rest of the run.
func (t *tracer) observeEcalls(rt *sgx.Runtime) {
	rt.SetEcallObserver(func(name string, durNs int64) {
		end := t.now()
		t.record(span{kind: spanEcall, sub: ecallKinds[name], start: end - durNs, end: end})
	})
}

// rawConn is the client's end of the pipe beneath the secure channel.
// It stamps when each sealed frame arrives, so the secure channel's
// RecvFrame can be split into waiting and opening the frame.
type rawConn struct {
	transport.Conn
	t       *tracer
	arrived int64 // touched only by the goroutine receiving frames
}

func (c *rawConn) RecvFrame() ([]byte, error) {
	f, err := c.Conn.RecvFrame()
	c.arrived = c.t.now()
	return f, err
}

// tracedConn wraps the client side of the secure channel and records a
// send span per request frame and a receive span per reply frame, keyed
// by the request's xid. The session's connect request and reply carry
// no header and get xid 0.
type tracedConn struct {
	inner   transport.Conn
	raw     *rawConn
	t       *tracer
	conn    int64
	sent    atomic.Int64
	recvd   int64 // touched only by the receiving goroutine
	lastXid atomic.Int64
}

func (c *tracedConn) reqID(xid int32) int64 { return c.conn<<32 | int64(uint32(xid)) }

func (c *tracedConn) SendFrame(p []byte) error {
	var xid int32
	if c.sent.Add(1) > 1 {
		var hdr wire.RequestHeader
		if hdr.Deserialize(wire.NewDecoder(p)) == nil {
			xid = hdr.Xid
		}
	}
	c.lastXid.Store(int64(xid))
	start := c.t.now()
	err := c.inner.SendFrame(p)
	c.t.record(span{kind: spanSend, id: c.reqID(xid), start: start, end: c.t.now(), bytes: int32(len(p))})
	return err
}

func (c *tracedConn) RecvFrame() ([]byte, error) {
	f, err := c.inner.RecvFrame()
	if err != nil {
		return f, err
	}
	end := c.t.now()
	c.recvd++
	var xid int32
	if c.recvd > 1 {
		var hdr wire.ReplyHeader
		if hdr.Deserialize(wire.NewDecoder(f)) != nil || hdr.Xid < 0 {
			return f, nil // watch events and pings answer no request
		}
		xid = hdr.Xid
	}
	c.t.record(span{kind: spanRecv, id: c.reqID(xid), start: c.raw.arrived, end: end, bytes: int32(len(f))})
	return f, nil
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// rootIDs returns the request-id range a root span covers: the frames
// the calling goroutine sent after it read lastXid as before (-1 for a
// new session, whose connect request is xid 0). The range is empty when
// no frame was sent.
func (c *tracedConn) rootIDs(before int64) (lo, hi int64) {
	return c.reqID(int32(before + 1)), c.reqID(int32(c.lastXid.Load()))
}

// dialTraced opens a session to replica i through the same server stack
// Cluster.Connect uses (ServeExternal: a fresh entry enclave behind the
// secure channel), with the client side wrapped for tracing.
func (b *bench) dialTraced(i int) (*client.Client, *tracedConn, error) {
	t := b.tr
	clientEnd, serverEnd := transport.NewChanPipe()
	b.served.Add(1)
	go func() {
		defer b.served.Done()
		_ = b.cl.ServeExternal(i, serverEnd) // ends with the session
	}()
	raw := &rawConn{Conn: clientEnd, t: t}
	tc := &tracedConn{raw: raw, t: t, conn: t.conns.Add(1)}
	id, err := transport.NewIdentity()
	if err != nil {
		_ = clientEnd.Close()
		return nil, nil, err
	}
	start := t.now()
	sc, err := transport.Handshake(raw, id, true, transport.VerifyExact(b.cl.ReplicaPublicKey(i)))
	t.record(span{kind: spanHandshake, id: tc.reqID(0), start: start, end: t.now()})
	if err != nil {
		_ = clientEnd.Close()
		return nil, nil, err
	}
	tc.inner = sc
	cl, err := client.NewSession(tc, client.Options{})
	if err != nil {
		_ = sc.Close()
		return nil, nil, err
	}
	return cl, tc, nil
}

// zabTap wraps a replica's peer transport and records every send. It
// hands Receive straight through, so inbound delivery is unchanged.
type zabTap struct {
	inner zab.Transport
	t     *tracer
	peer  uint8
}

func (z *zabTap) Send(to zab.PeerID, msg zab.Message) error {
	if !z.t.on.Load() {
		return z.inner.Send(to, msg)
	}
	start := z.t.now()
	err := z.inner.Send(to, msg)
	z.t.record(z.span(msg, start, 1))
	return err
}

func (z *zabTap) Receive() <-chan zab.Message { return z.inner.Receive() }

func (z *zabTap) Close() error { return z.inner.Close() }

func (z *zabTap) span(msg zab.Message, start int64, fanout int) span {
	e := wire.GetEncoder()
	msg.Serialize(e)
	size := e.Len()
	wire.PutEncoder(e)
	lo, hi := msg.Zxid, msg.Zxid
	if n := len(msg.Batch); n > 0 && (msg.Kind == zab.KindProposeBatch || msg.Kind == zab.KindObserverCommit) {
		lo, hi = msg.Batch[0].Txn.Zxid, msg.Batch[n-1].Txn.Zxid
	} else if msg.Kind == zab.KindPropose && msg.Txn != nil {
		lo, hi = msg.Txn.Zxid, msg.Txn.Zxid
	}
	return span{kind: spanZabSend, sub: uint8(msg.Kind), peer: z.peer, fanout: uint8(fanout),
		id: lo, idHi: hi, start: start, end: z.t.now(), bytes: int32(size)}
}

// zabTapMany keeps the wrapped transport's encode-once fan-out.
type zabTapMany struct {
	*zabTap
	ms zab.MultiSender
}

func (z zabTapMany) SendMany(to []zab.PeerID, msg zab.Message) error {
	if !z.t.on.Load() {
		return z.ms.SendMany(to, msg)
	}
	start := z.t.now()
	err := z.ms.SendMany(to, msg)
	z.t.record(z.span(msg, start, len(to)))
	return err
}

// wrapZab is the core.Config.WrapTransport hook of a traced run. The
// wrapper exposes exactly the optional capabilities the inner transport
// has, so the peer takes the same code paths as without it.
func (t *tracer) wrapZab(id zab.PeerID, inner zab.Transport, _ *obs.Registry) zab.Transport {
	tap := &zabTap{inner: inner, t: t, peer: uint8(id)}
	ms, many := inner.(zab.MultiSender)
	mu, member := inner.(zab.MembershipUpdater)
	switch {
	case many && member:
		return struct {
			zabTapMany
			zab.MembershipUpdater
		}{zabTapMany{tap, ms}, mu}
	case many:
		return zabTapMany{tap, ms}
	case member:
		return struct {
			*zabTap
			zab.MembershipUpdater
		}{tap, mu}
	default:
		return tap
	}
}
