package zabnet

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// testMeshSeed is the deployment secret (the storage key, in core's
// wiring) the attestation root derives from.
var testMeshSeed = []byte("test-deployment-storage-key-0001")

const testMeshCode = "securekeeper-mesh"

func testSecureConfig(t *testing.T) *SecureConfig {
	t.Helper()
	id, err := transport.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	return &SecureConfig{
		Signer:   sgx.NewSeededQuoteSigner(testMeshSeed, testMeshCode),
		Identity: id,
	}
}

func secureTweak(t *testing.T) func(*Config) {
	return func(cfg *Config) {
		cfg.Secure = testSecureConfig(t)
	}
}

func TestSecureMeshDelivery(t *testing.T) {
	meshes := newTestMeshes(t, 3, secureTweak(t))
	waitConnected(t, meshes)

	if err := meshes[2].Send(1, zab.Message{Kind: zab.KindPing, Epoch: 9, Zxid: 77}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 2*time.Second)
	if got.Kind != zab.KindPing || got.Epoch != 9 || got.Zxid != 77 || got.From != 3 {
		t.Fatalf("got %+v", got)
	}
	if err := meshes[0].Send(3, zab.Message{Kind: zab.KindPong, Zxid: 78}); err != nil {
		t.Fatal(err)
	}
	got = recvMsg(t, meshes[2], 2*time.Second)
	if got.Kind != zab.KindPong || got.Zxid != 78 || got.From != 1 {
		t.Fatalf("got %+v", got)
	}
}

// TestSecureMeshFragmentedTransfer: oversized messages still fragment
// and reassemble through the encrypted framing.
func TestSecureMeshFragmentedTransfer(t *testing.T) {
	meshes := newTestMeshes(t, 2, func(cfg *Config) {
		cfg.ChunkBytes = 512
		cfg.Secure = testSecureConfig(t)
	})
	waitConnected(t, meshes)

	payload := bytes.Repeat([]byte("fragmented-over-ciphertext"), 1024)
	if err := meshes[1].Send(1, zab.Message{Kind: zab.KindApp, App: payload}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, meshes[0], 5*time.Second)
	if got.Kind != zab.KindApp || !bytes.Equal(got.App, payload) {
		t.Fatalf("fragmented payload corrupted: kind=%v len=%d", got.Kind, len(got.App))
	}
}

// TestSecureMeshReconnect: the dialer re-attests and re-handshakes
// after link loss.
func TestSecureMeshReconnect(t *testing.T) {
	meshes := newTestMeshes(t, 2, secureTweak(t))
	waitConnected(t, meshes)

	meshes[0].KillLink(2)
	waitFor(t, 5*time.Second, "secure reconnect", func() bool {
		if !meshes[0].Connected(2) || !meshes[1].Connected(1) {
			return false
		}
		if err := meshes[1].Send(1, zab.Message{Kind: zab.KindPing, Zxid: 1}); err != nil {
			return false
		}
		select {
		case <-meshes[0].Receive():
			return true
		case <-time.After(20 * time.Millisecond):
			return false
		}
	})
}

// expectHandshakeRejected dials the mesh raw, runs the attacker's
// send, and asserts the mesh tears the connection down without ever
// installing a link for the claimed peer.
func expectHandshakeRejected(t *testing.T, m *Mesh, claimed zab.PeerID, attack func(fc *transport.FramedConn) error) {
	t.Helper()
	conn, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fc := transport.NewFramedConn(conn)
	if err := attack(fc); err != nil {
		t.Fatal(err)
	}
	_ = fc.SetDeadline(time.Now().Add(3 * time.Second))
	for {
		if _, err := fc.RecvFrame(); err != nil {
			break // mesh closed the connection — rejected
		}
	}
	if m.Connected(claimed) {
		t.Fatalf("mesh installed a link for spoofed peer %d", claimed)
	}
}

// TestSecureMeshHandshakeNegatives: wrong measurement, wrong deployment
// seed, spoofed id, observer claiming voter, and a replayed transcript
// are all rejected without panics and without a link forming.
func TestSecureMeshHandshakeNegatives(t *testing.T) {
	// One secured mesh, id 1; topology knows voter 3 and observer 4.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sec := testSecureConfig(t)
	m, err := NewMesh(Config{
		ID:        1,
		Peers:     map[zab.PeerID]string{1: ln.Addr().String(), 3: "", 4: ""},
		Observers: map[zab.PeerID]bool{4: true},
		Listener:  ln,
		Secure:    sec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })

	goodID, err := transport.NewIdentity()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("wrong measurement", func(t *testing.T) {
		evil := &SecureConfig{
			Signer:   sgx.NewSeededQuoteSigner(testMeshSeed, "evil-binary"),
			Identity: goodID,
		}
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			return sendHelloSec(fc, 3, false, evil)
		})
	})

	t.Run("wrong deployment seed", func(t *testing.T) {
		outsider := &SecureConfig{
			Signer:   sgx.NewSeededQuoteSigner([]byte("some-other-deployment-secret"), testMeshCode),
			Identity: goodID,
		}
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			return sendHelloSec(fc, 3, false, outsider)
		})
	})

	t.Run("id spoof", func(t *testing.T) {
		// A quote honestly bound to id 4 re-sent under a hello claiming
		// id 3: the transcript check must catch the mismatch.
		legit := &SecureConfig{Signer: sec.Signer, Identity: goodID}
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			q := legit.Signer.Quote(helloTranscript(4, false, legit.Identity.Public))
			e := newSecHelloEncoder(3, false, legit.Identity.Public)
			e.WriteRaw(q.Measurement[:])
			e.WriteBuffer(q.ReportData)
			e.WriteBuffer(q.Signature)
			return fc.SendFrame(e.Bytes())
		})
	})

	t.Run("observer claims voter", func(t *testing.T) {
		// Peer 4 is an observer in the topology; a fully valid attested
		// hello claiming voter must die on role validation.
		legit := &SecureConfig{Signer: sec.Signer, Identity: goodID}
		expectHandshakeRejected(t, m, 4, func(fc *transport.FramedConn) error {
			return sendHelloSec(fc, 4, false, legit)
		})
	})

	t.Run("plaintext hello on secured mesh", func(t *testing.T) {
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			return sendHello(fc, 3, false)
		})
	})

	t.Run("replayed transcript", func(t *testing.T) {
		// The attacker captured peer 3's genuine attested hello (quote
		// and all) but does not hold 3's channel private key: the
		// channel handshake must fail — replaying attestation evidence
		// buys nothing without the key it binds.
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			if err := sendHelloSec(fc, 3, false, &SecureConfig{Signer: sec.Signer, Identity: goodID}); err != nil {
				return err
			}
			// Mesh answers with its own hello, then runs the channel
			// handshake; we answer with a DIFFERENT identity, as a
			// replayer without the private key must.
			if _, err := fc.RecvFrame(); err != nil {
				return err
			}
			attacker, err := transport.NewIdentity()
			if err != nil {
				return err
			}
			_, _ = transport.Handshake(fc, attacker, true, transport.VerifyAny())
			return nil
		})
	})

	t.Run("anonymous channel initiator", func(t *testing.T) {
		// A fully valid attested hello, then a channel handshake with
		// no identity: the mesh verifies peers, so the 32-byte
		// anonymous flight must be refused.
		expectHandshakeRejected(t, m, 3, func(fc *transport.FramedConn) error {
			if err := sendHelloSec(fc, 3, false, &SecureConfig{Signer: sec.Signer, Identity: goodID}); err != nil {
				return err
			}
			if _, err := fc.RecvFrame(); err != nil {
				return err
			}
			_, _ = transport.Handshake(fc, nil, true, nil)
			return nil
		})
	})
}

// newSecHelloEncoder builds the fixed prefix of an attested hello so
// negative tests can attach mismatched evidence.
func newSecHelloEncoder(id zab.PeerID, observer bool, chanPub []byte) *wire.Encoder {
	e := wire.NewEncoder(256)
	_ = e.WriteByte(frameHelloSec)
	e.WriteInt32(helloMagic)
	e.WriteInt32(protoVersion)
	e.WriteInt64(int64(id))
	role := roleVoter
	if observer {
		role = roleObserver
	}
	_ = e.WriteByte(role)
	e.WriteBuffer(chanPub)
	return e
}

// captureWriter tees everything written through it into a shared buffer.
type captureWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *captureWriter) contains(marker []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return bytes.Contains(c.buf.Bytes(), marker)
}

// sniffProxy forwards TCP to target while recording every byte of both
// directions.
func sniffProxy(t *testing.T, target string) (addr string, cap *captureWriter) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	cap = &captureWriter{}
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			out, err := net.Dial("tcp", target)
			if err != nil {
				_ = in.Close()
				continue
			}
			go func() { _, _ = io.Copy(out, io.TeeReader(in, cap)); _ = out.Close() }()
			go func() { _, _ = io.Copy(in, io.TeeReader(out, cap)); _ = in.Close() }()
		}
	}()
	return ln.Addr().String(), cap
}

// sniffedPair builds a two-mesh ensemble whose single link runs through
// a byte-capturing proxy, sends a marker payload across, and returns
// the capture.
func sniffedPair(t *testing.T, secure bool, marker []byte) *captureWriter {
	t.Helper()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	proxyAddr, cap := sniffProxy(t, ln1.Addr().String())
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id zab.PeerID, ln net.Listener) *Mesh {
		cfg := Config{
			ID: id,
			// Mesh 2 reaches mesh 1 only through the sniffer.
			Peers:        map[zab.PeerID]string{1: proxyAddr, 2: ln2.Addr().String()},
			Listener:     ln,
			ReconnectMin: 5 * time.Millisecond,
			ReconnectMax: 50 * time.Millisecond,
		}
		if secure {
			cfg.Secure = testSecureConfig(t)
		}
		m, err := NewMesh(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = m.Close() })
		return m
	}
	m1, m2 := mk(1, ln1), mk(2, ln2)
	waitConnected(t, []*Mesh{m1, m2})
	if err := m2.Send(1, zab.Message{Kind: zab.KindApp, App: marker}); err != nil {
		t.Fatal(err)
	}
	got := recvMsg(t, m1, 5*time.Second)
	if !bytes.Equal(got.App, marker) {
		t.Fatalf("marker did not round-trip: %q", got.App)
	}
	return cap
}

// TestSecureMeshTrafficIsCiphertext sniffs a real TCP link: the marker
// a replica sends must be invisible on the wire of a secured mesh —
// and, as a control proving the sniffer works, visible on a plaintext
// one.
func TestSecureMeshTrafficIsCiphertext(t *testing.T) {
	marker := []byte("TOP-SECRET-ZAB-PAYLOAD-MARKER-0xDECAF")
	if cap := sniffedPair(t, false, marker); !cap.contains(marker) {
		t.Fatal("control failed: plaintext mesh hid the marker from the sniffer")
	}
	if cap := sniffedPair(t, true, marker); cap.contains(marker) {
		t.Fatal("marker visible on the wire of a secured mesh")
	}
}

// TestMeshAddRemovePeer drives the MembershipUpdater surface directly:
// a third replica joins a live two-mesh ensemble at runtime, carries
// traffic, then is removed and locked out.
func TestMeshAddRemovePeer(t *testing.T) {
	meshes := newTestMeshes(t, 2, nil)
	waitConnected(t, meshes)

	ln3, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr3 := ln3.Addr().String()
	for _, m := range meshes {
		m.AddPeer(3, addr3, true)
	}
	m3, err := NewMesh(Config{
		ID: 3,
		Peers: map[zab.PeerID]string{
			1: meshes[0].Addr(), 2: meshes[1].Addr(), 3: addr3,
		},
		Observers:    map[zab.PeerID]bool{3: true},
		Listener:     ln3,
		ReconnectMin: 5 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m3.Close() })
	waitConnected(t, []*Mesh{meshes[0], meshes[1], m3})

	if err := m3.Send(1, zab.Message{Kind: zab.KindObserverInfo, Zxid: 3}); err != nil {
		t.Fatal(err)
	}
	if got := recvMsg(t, meshes[0], 2*time.Second); got.From != 3 {
		t.Fatalf("got %+v", got)
	}

	// Promote flips only the role; links survive.
	for _, m := range meshes {
		m.AddPeer(3, "", false)
	}
	if known, obs := meshes[0].memberRole(3); !known || obs {
		t.Fatalf("after promote: known=%v observer=%v", known, obs)
	}

	// Removal tears the link down and locks the peer out: its dialer
	// keeps retrying but is rejected as unknown.
	meshes[0].RemovePeer(3)
	waitFor(t, 5*time.Second, "link teardown", func() bool {
		return !meshes[0].Connected(3)
	})
	time.Sleep(100 * time.Millisecond) // several redial attempts
	if meshes[0].Connected(3) {
		t.Fatal("removed peer re-established a link")
	}
}
