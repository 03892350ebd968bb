package transport

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"testing"
)

// respondTo runs a responder over a fresh pipe while the test plays the
// initiator by hand: flight is sent as the initiator's first flight
// (the pipe buffers it), and the responder's own flight is returned.
func respondTo(t testing.TB, id *Identity, verify PeerVerifier, flight []byte) (*SecureConn, []byte, error) {
	t.Helper()
	a, b := NewChanPipe()
	defer a.Close()
	if err := a.SendFrame(flight); err != nil {
		t.Fatal(err)
	}
	sc, err := Handshake(b, id, false, verify)
	resp, rerr := a.RecvFrame()
	if rerr != nil {
		t.Fatalf("responder flight: %v", rerr)
	}
	return sc, resp, err
}

func newEphemeral(t testing.TB) *ecdh.PrivateKey {
	t.Helper()
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return eph
}

// TestHandshakeAnonymousInitiator: a client without an identity and a
// responder without a verifier form a channel that carries records
// both ways; only the responder's key is known.
func TestHandshakeAnonymousInitiator(t *testing.T) {
	serverID, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewChanPipe()
	srvCh := make(chan *SecureConn, 1)
	errCh := make(chan error, 1)
	go func() {
		sc, err := Handshake(b, serverID, false, nil)
		srvCh <- sc
		errCh <- err
	}()
	cli, err := Handshake(a, nil, true, VerifyExact(serverID.Public))
	if err != nil {
		t.Fatal(err)
	}
	srv := <-srvCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if srv.Peer() != nil {
		t.Fatalf("responder Peer() = %x, want nil for an anonymous initiator", srv.Peer())
	}
	if !cli.Peer().Equal(serverID.Public) {
		t.Fatal("initiator Peer() is not the pinned responder key")
	}
	for i := 0; i < 4; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 50*i+1)
		if err := cli.SendFrame(msg); err != nil {
			t.Fatal(err)
		}
		if got, err := srv.RecvFrame(); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("client->server %d: %q, %v", i, got, err)
		}
		if err := srv.SendFrame(msg); err != nil {
			t.Fatal(err)
		}
		if got, err := cli.RecvFrame(); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("server->client %d: %q, %v", i, got, err)
		}
	}
}

// TestHandshakeVerifierRejectsAnonymous: a responder that verifies
// initiators refuses the 32-byte anonymous flight before any verifier
// could be asked.
func TestHandshakeVerifierRejectsAnonymous(t *testing.T) {
	serverID, _ := NewIdentity()
	someID, _ := NewIdentity()
	for name, verify := range map[string]PeerVerifier{
		"VerifyExact": VerifyExact(someID.Public),
		"VerifyAny":   VerifyAny(),
	} {
		t.Run(name, func(t *testing.T) {
			eph := newEphemeral(t)
			sc, _, err := respondTo(t, serverID, verify, buildFlight(nil, eph))
			if sc != nil || !errors.Is(err, ErrHandshakeFailed) {
				t.Fatalf("anonymous flight against %s: conn %v, err %v; want ErrHandshakeFailed", name, sc, err)
			}
		})
	}
}

// TestHandshakeWrongKeyInitiator: a signed flight under a key the
// verifier does not pin is refused.
func TestHandshakeWrongKeyInitiator(t *testing.T) {
	serverID, _ := NewIdentity()
	pinned, _ := NewIdentity()
	intruder, _ := NewIdentity()
	sc, _, err := respondTo(t, serverID, VerifyExact(pinned.Public), buildFlight(intruder, newEphemeral(t)))
	if sc != nil || !errors.Is(err, ErrBadPeerIdentity) {
		t.Fatalf("wrong-key initiator: conn %v, err %v; want ErrBadPeerIdentity", sc, err)
	}
}

// TestHandshakePresentedSignatureChecked: a responder without a
// verifier still checks a signature that is presented. Every single
// flipped signature bit fails the handshake.
func TestHandshakePresentedSignatureChecked(t *testing.T) {
	serverID, _ := NewIdentity()
	clientID, _ := NewIdentity()
	good := buildFlight(clientID, newEphemeral(t))
	if sc, _, err := respondTo(t, serverID, nil, good); err != nil || !sc.Peer().Equal(clientID.Public) {
		t.Fatalf("intact signed flight: err %v", err)
	}
	sigStart := 32 + ed25519.PublicKeySize
	for bit := 0; bit < 8*ed25519.SignatureSize; bit++ {
		bad := bytes.Clone(good)
		bad[sigStart+bit/8] ^= 1 << (bit % 8)
		sc, _, err := respondTo(t, serverID, nil, bad)
		if sc != nil || !errors.Is(err, ErrHandshakeFailed) {
			t.Fatalf("signature bit %d flipped: conn %v, err %v; want ErrHandshakeFailed", bit, sc, err)
		}
	}
}

// TestHandshakeFlightLengths: only 32- and 128-byte flights are
// well-formed, for a responder with or without a verifier.
func TestHandshakeFlightLengths(t *testing.T) {
	serverID, _ := NewIdentity()
	for _, verify := range []PeerVerifier{nil, VerifyAny()} {
		for n := 0; n <= signedFlightLen+40; n++ {
			if n == anonFlightLen || n == signedFlightLen {
				continue
			}
			flight := make([]byte, n)
			_, _ = rand.Read(flight)
			sc, _, err := respondTo(t, serverID, verify, flight)
			if sc != nil || !errors.Is(err, ErrHandshakeFailed) {
				t.Fatalf("%d-byte flight (verifier %t): conn %v, err %v; want ErrHandshakeFailed", n, verify != nil, sc, err)
			}
		}
	}
}

// TestHandshakeInitiatorRequiresSignedResponder: the initiator's check
// of the responder is unchanged — an anonymous responder flight fails,
// even with no verifier.
func TestHandshakeInitiatorRequiresSignedResponder(t *testing.T) {
	a, b := NewChanPipe()
	defer b.Close()
	if err := b.SendFrame(buildFlight(nil, newEphemeral(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := Handshake(a, nil, true, nil); !errors.Is(err, ErrHandshakeFailed) {
		t.Fatalf("anonymous responder flight: err %v, want ErrHandshakeFailed", err)
	}
	if _, err := Handshake(a, nil, false, nil); !errors.Is(err, ErrHandshakeFailed) {
		t.Fatalf("responder without identity: err %v, want ErrHandshakeFailed", err)
	}
}

// FuzzHandshakeFlight feeds arbitrary initiator flights to a responder
// with and without a verifier. Property: no panic, and a channel comes
// up only from a well-formed flight — 32 bytes with no verifier, or 128
// bytes whose signature verifies, and then Peer() is the signed key.
func FuzzHandshakeFlight(f *testing.F) {
	serverID, err := NewIdentity()
	if err != nil {
		f.Fatal(err)
	}
	clientID, err := NewIdentity()
	if err != nil {
		f.Fatal(err)
	}
	eph := newEphemeral(f)
	signed := buildFlight(clientID, eph)
	flipped := bytes.Clone(signed)
	flipped[len(flipped)-1] ^= 0x80
	for _, seed := range [][]byte{nil, buildFlight(nil, eph), signed, flipped, make([]byte, 32), signed[:33], append(bytes.Clone(signed), 0)} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, flight []byte) {
		for _, verify := range []PeerVerifier{nil, VerifyAny()} {
			sc, resp, err := respondTo(t, serverID, verify, flight)
			if len(resp) != signedFlightLen {
				t.Fatalf("responder flight is %d bytes, want %d", len(resp), signedFlightLen)
			}
			if err != nil {
				if sc != nil {
					t.Fatal("handshake returned both a conn and an error")
				}
				continue
			}
			switch len(flight) {
			case anonFlightLen:
				if verify != nil {
					t.Fatal("verifying responder accepted an anonymous flight")
				}
				if sc.Peer() != nil {
					t.Fatal("anonymous flight produced a peer key")
				}
			case signedFlightLen:
				pub := ed25519.PublicKey(flight[32 : 32+ed25519.PublicKeySize])
				if !ed25519.Verify(pub, flight[:32+ed25519.PublicKeySize], flight[32+ed25519.PublicKeySize:]) {
					t.Fatal("channel came up from a flight with a bad signature")
				}
				if !sc.Peer().Equal(pub) {
					t.Fatal("Peer() is not the key that signed the flight")
				}
			default:
				t.Fatalf("channel came up from a %d-byte flight", len(flight))
			}
		}
	})
}
