// Package transport provides the client-to-replica communication layer:
// length-prefixed message framing over any net.Conn (TCP or in-process
// pipes), plus an authenticated-encryption secure channel equivalent to
// the TLS connections the paper's baselines use. The secure channel's
// server side can be terminated inside the entry enclave, which is the
// property SecureKeeper requires (§4.1: "the endpoint of this secure
// connection is located inside the entry enclave").
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameSize bounds a single framed message (protocol payload plus
// SecureKeeper ciphertext expansion).
const MaxFrameSize = 8 << 20

// Framing errors.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds maximum size")
	ErrClosed        = errors.New("transport: connection closed")
)

// Conn is a message-oriented connection.
type Conn interface {
	// SendFrame writes one message. Implementations do not retain
	// payload after returning, so callers may reuse its storage.
	SendFrame(payload []byte) error
	// RecvFrame reads the next message. The returned slice is owned by
	// the caller; implementations never reuse its storage.
	RecvFrame() ([]byte, error)
	// Close tears the connection down.
	Close() error
}

// BatchReceiver is implemented by connections that can hand over every
// frame that has already arrived in one call, so a receiver can process
// a run of pipelined messages together. It is optional: callers type-
// assert for it and fall back to RecvFrame.
type BatchReceiver interface {
	// RecvFrames blocks for the first frame, then appends frames that
	// are already available without waiting, up to max frames in all.
	// Frames keep arrival order and are owned by the caller, as with
	// RecvFrame. On error, the frames appended before it are valid and
	// must be handled before the error.
	RecvFrames(dst [][]byte, max int) ([][]byte, error)
}

// RecvFrames receives through conn's BatchReceiver when it has one;
// otherwise it appends a single RecvFrame, a batch of one.
func RecvFrames(conn Conn, dst [][]byte, max int) ([][]byte, error) {
	if br, ok := conn.(BatchReceiver); ok {
		return br.RecvFrames(dst, max)
	}
	f, err := conn.RecvFrame()
	if err != nil {
		return dst, err
	}
	return append(dst, f), nil
}

// frameArena amortizes per-frame buffer allocations: frames are carved
// out of a chunk, and a fresh chunk is allocated only when the current
// one is exhausted. Chunks start small and double up to arenaChunkSize,
// so a short session pays for a few KiB, not a full chunk. Carved
// regions are never reused, so the caller-owns contract of RecvFrame
// holds — the garbage collector frees a chunk once no frame carved
// from it is referenced. Frames too large to amortize get their own
// allocation.
type frameArena struct {
	buf []byte
	off int
}

const (
	arenaFirstChunk = 1 << 10
	arenaChunkSize  = 32 << 10
	// arenaMaxCarve bounds carved frames so one big frame cannot waste
	// most of a chunk.
	arenaMaxCarve = arenaChunkSize / 4
)

// carve returns a caller-owned slice of n bytes with capacity capped at
// n, so appends by the caller can never bleed into later carves.
func (a *frameArena) carve(n int) []byte {
	if n > arenaMaxCarve {
		return make([]byte, n)
	}
	if len(a.buf)-a.off < n {
		size := max(arenaFirstChunk, 2*len(a.buf))
		for size < n {
			size *= 2
		}
		a.buf = make([]byte, min(size, arenaChunkSize))
		a.off = 0
	}
	b := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return b
}

// framedReadBuffer sizes a FramedConn's read buffer: a dozen small
// frames fit, so pipelined requests that arrive in one segment can be
// handed over as one batch.
const framedReadBuffer = 16 << 10

// FramedConn wraps a stream connection with 4-byte big-endian length
// prefixes. Safe for one concurrent reader and one concurrent writer.
type FramedConn struct {
	conn      net.Conn
	rd        *bufio.Reader
	writeMu   sync.Mutex
	readMu    sync.Mutex
	readBuf   [4]byte
	writeBuf  []byte
	readArena frameArena
}

var (
	_ Conn          = (*FramedConn)(nil)
	_ BatchReceiver = (*FramedConn)(nil)
)

// NewFramedConn wraps conn with framing.
func NewFramedConn(conn net.Conn) *FramedConn {
	return &FramedConn{conn: conn, rd: bufio.NewReaderSize(conn, framedReadBuffer)}
}

// SendFrame implements Conn.
func (c *FramedConn) SendFrame(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.writeBuf = c.writeBuf[:0]
	c.writeBuf = binary.BigEndian.AppendUint32(c.writeBuf, uint32(len(payload)))
	c.writeBuf = append(c.writeBuf, payload...)
	if _, err := c.conn.Write(c.writeBuf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// RecvFrame implements Conn.
func (c *FramedConn) RecvFrame() ([]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	return c.recvLocked()
}

// RecvFrames implements BatchReceiver: after the first frame it takes
// every complete frame already sitting in the read buffer.
func (c *FramedConn) RecvFrames(dst [][]byte, max int) ([][]byte, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	f, err := c.recvLocked()
	if err != nil {
		return dst, err
	}
	dst = append(dst, f)
	for n := 1; n < max && c.rd.Buffered() >= 4; n++ {
		hdr, _ := c.rd.Peek(4)
		size := binary.BigEndian.Uint32(hdr)
		if size > MaxFrameSize || c.rd.Buffered() < 4+int(size) {
			break // incomplete (or oversized: the next read reports it)
		}
		if f, err = c.recvLocked(); err != nil {
			return dst, err
		}
		dst = append(dst, f)
	}
	return dst, nil
}

func (c *FramedConn) recvLocked() ([]byte, error) {
	if _, err := io.ReadFull(c.rd, c.readBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.readBuf[:])
	if n > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	payload := c.readArena.carve(int(n))
	if _, err := io.ReadFull(c.rd, payload); err != nil {
		return nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	return payload, nil
}

// Close implements Conn.
func (c *FramedConn) Close() error { return c.conn.Close() }

// SetDeadline bounds both reads and writes on the underlying stream.
// Handshaking layers (the zab peer mesh) use it so a stalled or
// malicious dialer cannot pin an accept goroutine forever; pass the
// zero time to clear.
func (c *FramedConn) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// ChanConn is an in-process message connection over channels, used by
// the benchmark harness to factor network stacks out of throughput
// comparisons. Create pairs with NewChanPipe.
type ChanConn struct {
	send      chan<- []byte
	recv      <-chan []byte
	closeOnce sync.Once
	closed    chan struct{}
	peerDone  <-chan struct{}

	sendMu    sync.Mutex
	sendArena frameArena
}

var (
	_ Conn          = (*ChanConn)(nil)
	_ BatchReceiver = (*ChanConn)(nil)
)

// chanPipeDepth is how many frames each direction of a ChanConn pair
// buffers, the analogue of a small socket buffer: a pipelining sender
// runs ahead of its receiver, so runs of frames can form.
const chanPipeDepth = 16

// NewChanPipe returns two connected in-process connections.
func NewChanPipe() (*ChanConn, *ChanConn) {
	ab := make(chan []byte, chanPipeDepth)
	ba := make(chan []byte, chanPipeDepth)
	aClosed := make(chan struct{})
	bClosed := make(chan struct{})
	a := &ChanConn{send: ab, recv: ba, closed: aClosed, peerDone: bClosed}
	b := &ChanConn{send: ba, recv: ab, closed: bClosed, peerDone: aClosed}
	return a, b
}

// SendFrame implements Conn.
func (c *ChanConn) SendFrame(payload []byte) error {
	// Fail deterministically once either side is closed (a select with
	// a ready buffered send and a closed channel picks randomly).
	select {
	case <-c.closed:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	default:
	}
	// The receiver owns the delivered frame, so the payload is copied —
	// into an arena carve, which amortizes the per-frame allocation.
	c.sendMu.Lock()
	buf := c.sendArena.carve(len(payload))
	c.sendMu.Unlock()
	copy(buf, payload)
	select {
	case c.send <- buf:
		return nil
	case <-c.closed:
		return ErrClosed
	case <-c.peerDone:
		return ErrClosed
	}
}

// RecvFrame implements Conn.
func (c *ChanConn) RecvFrame() ([]byte, error) {
	select {
	case buf := <-c.recv:
		return buf, nil
	case <-c.closed:
		return nil, ErrClosed
	case <-c.peerDone:
		// Drain anything already queued before reporting closure.
		select {
		case buf := <-c.recv:
			return buf, nil
		default:
			return nil, io.EOF
		}
	}
}

// RecvFrames implements BatchReceiver: after the first frame it takes
// the frames already queued in the pipe.
func (c *ChanConn) RecvFrames(dst [][]byte, max int) ([][]byte, error) {
	f, err := c.RecvFrame()
	if err != nil {
		return dst, err
	}
	dst = append(dst, f)
	for n := 1; n < max; n++ {
		select {
		case f := <-c.recv:
			dst = append(dst, f)
		default:
			return dst, nil
		}
	}
	return dst, nil
}

// Close implements Conn.
func (c *ChanConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
