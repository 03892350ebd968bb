package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// recvFramesWithin runs RecvFrames and fails the test if it has not
// returned within a second: a batch must never wait past its first
// frame.
func recvFramesWithin(t *testing.T, br BatchReceiver, max int) ([][]byte, error) {
	t.Helper()
	type result struct {
		frames [][]byte
		err    error
	}
	ch := make(chan result, 1)
	go func() {
		frames, err := br.RecvFrames(nil, max)
		ch <- result{frames, err}
	}()
	select {
	case r := <-ch:
		return r.frames, r.err
	case <-time.After(time.Second):
		t.Fatal("RecvFrames blocked past the first frame")
		return nil, nil
	}
}

func wantFrames(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames %q, want %q", len(got), got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestChanConnRecvFrames(t *testing.T) {
	a, b := NewChanPipe()
	if err := a.SendFrame([]byte("one")); err != nil {
		t.Fatal(err)
	}
	got, err := recvFramesWithin(t, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "one")

	for i := 0; i < 5; i++ {
		if err := a.SendFrame([]byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	// max bounds the batch; the rest stays queued, in order.
	got, err = recvFramesWithin(t, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "0", "1", "2")
	got, err = recvFramesWithin(t, b, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "3", "4")

	_ = a.Close()
	if _, err := b.RecvFrames(nil, 16); err == nil {
		t.Fatal("RecvFrames after peer close must fail")
	}
}

// framedWire encodes frames exactly as FramedConn.SendFrame does, so a
// test can put several on the stream in one write.
func framedWire(frames ...string) []byte {
	var out []byte
	for _, f := range frames {
		out = binary.BigEndian.AppendUint32(out, uint32(len(f)))
		out = append(out, f...)
	}
	return out
}

func TestFramedConnRecvFrames(t *testing.T) {
	raw, peer := net.Pipe()
	fc := NewFramedConn(peer)
	defer raw.Close()
	defer fc.Close()

	write := func(b []byte) {
		go func() { _, _ = raw.Write(b) }()
	}
	write(framedWire("solo"))
	got, err := recvFramesWithin(t, fc, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "solo")

	// Three whole frames and the first half of a fourth arrive in one
	// segment: the batch takes the complete ones and leaves the partial
	// frame for the next read.
	seg := framedWire("a", "bb", "ccc", "dddd")
	write(seg[:len(seg)-2])
	got, err = recvFramesWithin(t, fc, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "a", "bb", "ccc")
	write(seg[len(seg)-2:])
	f, err := fc.RecvFrame()
	if err != nil || string(f) != "dddd" {
		t.Fatalf("split frame = %q, %v", f, err)
	}

	write(framedWire("x", "y", "z"))
	got, err = recvFramesWithin(t, fc, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "x", "y")
	got, err = recvFramesWithin(t, fc, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "z")
}

// TestSecureConnRecvFramesNonceContinuity interleaves single and
// batched receives: every record opens under the next nonce, whichever
// call consumed it.
func TestSecureConnRecvFramesNonceContinuity(t *testing.T) {
	cli, srv, _, _, err := secureTestPair(t, VerifyAny(), VerifyAny())
	if err != nil {
		t.Fatal(err)
	}
	send := func(msgs ...string) {
		for _, m := range msgs {
			if err := cli.SendFrame([]byte(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	send("r0")
	f, err := srv.RecvFrame()
	if err != nil || string(f) != "r0" {
		t.Fatalf("single = %q, %v", f, err)
	}
	send("r1", "r2", "r3")
	got, err := recvFramesWithin(t, srv, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "r1", "r2", "r3")
	send("r4", "r5")
	if f, err = srv.RecvFrame(); err != nil || string(f) != "r4" {
		t.Fatalf("single = %q, %v", f, err)
	}
	got, err = recvFramesWithin(t, srv, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantFrames(t, got, "r5")
}

// TestSecureConnRecvFramesTamperedMidBatch: a forged record in the
// middle of a batch yields the authentic prefix with the error, never
// a record after it.
func TestSecureConnRecvFramesTamperedMidBatch(t *testing.T) {
	serverID, _ := NewIdentity()
	clientID, _ := NewIdentity()
	a, b := NewChanPipe()
	done := make(chan *SecureConn, 1)
	go func() {
		sc, _ := Handshake(b, serverID, false, VerifyAny())
		done <- sc
	}()
	cli, err := Handshake(a, clientID, true, VerifyAny())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-done
	for _, m := range []string{"ok0", "ok1"} {
		if err := cli.SendFrame([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SendFrame([]byte("forged record, not sealed")); err != nil {
		t.Fatal(err)
	}
	if err := cli.SendFrame([]byte("after")); err != nil {
		t.Fatal(err)
	}
	got, err := recvFramesWithin(t, srv, 16)
	if !errors.Is(err, ErrRecordTampered) {
		t.Fatalf("err = %v, want ErrRecordTampered", err)
	}
	wantFrames(t, got, "ok0", "ok1")
}

// plainConn hides the BatchReceiver of the connection it wraps.
type plainConn struct{ Conn }

// TestRecvFramesFallsBackToOneFrame: without a BatchReceiver, the
// transport.RecvFrames helper and a SecureConn over such a connection
// serve each frame as a batch of one, in order.
func TestRecvFramesFallsBackToOneFrame(t *testing.T) {
	a, b := NewChanPipe()
	for _, m := range []string{"p0", "p1"} {
		if err := a.SendFrame([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"p0", "p1"} {
		got, err := RecvFrames(plainConn{b}, nil, 16)
		if err != nil {
			t.Fatal(err)
		}
		wantFrames(t, got, want)
	}

	serverID, _ := NewIdentity()
	clientID, _ := NewIdentity()
	a, b = NewChanPipe()
	done := make(chan *SecureConn, 1)
	go func() {
		sc, _ := Handshake(plainConn{b}, serverID, false, VerifyAny())
		done <- sc
	}()
	cli, err := Handshake(a, clientID, true, VerifyAny())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-done
	for _, m := range []string{"s0", "s1", "s2"} {
		if err := cli.SendFrame([]byte(m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"s0", "s1", "s2"} {
		got, err := recvFramesWithin(t, srv, 16)
		if err != nil {
			t.Fatal(err)
		}
		wantFrames(t, got, want)
	}
	a.Close()
	if got, err := RecvFrames(srv, nil, 16); err == nil || len(got) != 0 {
		t.Fatalf("closed pipe: %d frames, err %v", len(got), err)
	}
}
