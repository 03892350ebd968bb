package zab

import (
	"bytes"
	"reflect"
	"testing"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// sampleMessages covers every protocol kind with all kind-relevant
// fields populated.
func sampleMessages() []Message {
	txn := ztree.Txn{
		Zxid:    MakeZxid(3, 7),
		Type:    ztree.TxnCreate,
		Path:    "/a/b",
		Data:    []byte("payload"),
		Version: 2,
		Session: 0x1234,
	}
	txn2 := txn
	txn2.Zxid = MakeZxid(3, 8)
	txn2.Path = "/a/c"
	origin := Origin{Peer: 2, Session: 99, Xid: 41}
	return []Message{
		{Kind: KindVote, Epoch: 5, VoteFor: 3, VoteZxid: MakeZxid(2, 9), VoteReply: true},
		{Kind: KindFollowerInfo, Zxid: MakeZxid(2, 4)},
		{Kind: KindSyncSnap, Epoch: 4, Zxid: MakeZxid(4, 0), Snapshot: &ztree.Snapshot{
			Nodes: []ztree.SnapshotNode{
				{Path: "/", Stat: wire.Stat{Czxid: 1}},
				{Path: "/x", Data: []byte("v"), Stat: wire.Stat{Czxid: 2, DataLength: 1}},
			},
		}},
		{Kind: KindSyncSnap, Epoch: 4, Zxid: MakeZxid(4, 0)}, // nil snapshot
		{Kind: KindSyncDiff, Epoch: 4, Zxid: MakeZxid(3, 8), Diff: []ProposalRecord{
			{Txn: txn, Origin: origin},
			{Txn: txn2, Origin: origin},
		}},
		{Kind: KindNewLeaderAck, Zxid: MakeZxid(3, 8)},
		{Kind: KindProposeBatch, Epoch: 3, Zxid: MakeZxid(3, 6), Batch: []ProposalRecord{
			{Txn: txn, Origin: origin},
			{Txn: txn2, Origin: origin},
		}},
		{Kind: KindAck, Zxid: MakeZxid(3, 7)},
		{Kind: KindCommit, Zxid: MakeZxid(3, 7)},
		{Kind: KindPing, Epoch: 3, Zxid: MakeZxid(3, 7)},
		{Kind: KindPong, Zxid: MakeZxid(3, 7)},
		{Kind: KindApp, App: []byte("tunneled request")},
	}
}

// retiredProposeFrame encodes a retired single-record PROPOSE as its
// senders framed it: the header, a presence flag, the txn, then the
// origin (peer, session, xid).
func retiredProposeFrame() []byte {
	e := wire.NewEncoder(64)
	e.WriteInt32(int32(KindPropose))
	e.WriteInt64(3)
	e.WriteInt64(0)
	e.WriteBool(true)
	txn := ztree.Txn{Zxid: MakeZxid(3, 7), Type: ztree.TxnCreate, Path: "/a/b", Data: []byte("payload")}
	txn.Serialize(e)
	e.WriteInt64(2)
	e.WriteInt64(99)
	e.WriteInt32(41)
	return append([]byte(nil), e.Bytes()...)
}

func TestMessageWireRoundTripAllKinds(t *testing.T) {
	for _, msg := range sampleMessages() {
		msg := msg
		t.Run(msg.Kind.String(), func(t *testing.T) {
			buf := wire.Marshal(&msg)
			var got Message
			if err := wire.Unmarshal(buf, &got); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if !reflect.DeepEqual(msg, got) {
				t.Fatalf("round trip mismatch:\n sent %+v\n got  %+v", msg, got)
			}
		})
	}
	// The retired kind does not round-trip: neither what the encoder
	// now writes for it nor the frame its senders used decodes.
	t.Run(KindPropose.String(), func(t *testing.T) {
		retired := Message{Kind: KindPropose, Epoch: 3}
		for _, buf := range [][]byte{wire.Marshal(&retired), retiredProposeFrame()} {
			var got Message
			if err := wire.Unmarshal(buf, &got); err == nil {
				t.Fatalf("retired PROPOSE frame (%d bytes) decoded as %+v", len(buf), got)
			}
		}
	})
}

// TestMessageWireTruncated feeds every prefix of every kind's encoding
// to the decoder: all must fail cleanly (or parse as a shorter valid
// frame is NOT acceptable — Unmarshal enforces full consumption).
func TestMessageWireTruncated(t *testing.T) {
	for _, msg := range sampleMessages() {
		msg := msg
		t.Run(msg.Kind.String(), func(t *testing.T) {
			buf := wire.Marshal(&msg)
			for n := 0; n < len(buf); n++ {
				var got Message
				if err := wire.Unmarshal(buf[:n], &got); err == nil {
					t.Fatalf("truncated frame (%d/%d bytes) decoded without error", n, len(buf))
				}
			}
		})
	}
	// No prefix of a retired PROPOSE frame decodes, the whole frame
	// included.
	t.Run(KindPropose.String(), func(t *testing.T) {
		buf := retiredProposeFrame()
		for n := 0; n <= len(buf); n++ {
			var got Message
			if err := wire.Unmarshal(buf[:n], &got); err == nil {
				t.Fatalf("retired PROPOSE prefix (%d/%d bytes) decoded without error", n, len(buf))
			}
		}
	})
}

func TestMessageWireAdversarial(t *testing.T) {
	encode := func(build func(e *wire.Encoder)) []byte {
		e := wire.NewEncoder(64)
		build(e)
		return append([]byte(nil), e.Bytes()...)
	}
	cases := map[string][]byte{
		"unknown kind": encode(func(e *wire.Encoder) {
			e.WriteInt32(999)
			e.WriteInt64(0)
			e.WriteInt64(0)
		}),
		"negative batch count": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(-2)
		}),
		"huge batch count": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(1 << 30)
		}),
		"batch zxid disorder": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindProposeBatch))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(2)
			for _, zxid := range []int64{MakeZxid(1, 5), MakeZxid(1, 4)} {
				rec := ProposalRecord{Txn: ztree.Txn{Zxid: zxid, Type: ztree.TxnSync, Path: "/"}}
				rec.Serialize(e)
			}
		}),
		"diff zxid disorder": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindSyncDiff))
			e.WriteInt64(1)
			e.WriteInt64(0)
			e.WriteInt32(2)
			for _, zxid := range []int64{MakeZxid(1, 5), MakeZxid(1, 5)} {
				rec := ProposalRecord{Txn: ztree.Txn{Zxid: zxid, Type: ztree.TxnSync, Path: "/"}}
				rec.Serialize(e)
			}
		}),
		"app buffer over limit": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindApp))
			e.WriteInt64(0)
			e.WriteInt64(0)
			e.WriteInt32(wire.MaxBufferSize + 1)
		}),
		"trailing garbage": encode(func(e *wire.Encoder) {
			e.WriteInt32(int32(KindAck))
			e.WriteInt64(0)
			e.WriteInt64(7)
			e.WriteInt64(0xdead)
		}),
	}
	for name, buf := range cases {
		name, buf := name, buf
		t.Run(name, func(t *testing.T) {
			var got Message
			if err := wire.Unmarshal(buf, &got); err == nil {
				t.Fatalf("adversarial frame decoded without error: %x", buf)
			}
		})
	}
}

// TestMessageWireRandomBytes throws random garbage at the decoder; the
// only requirement is no panic.
func TestMessageWireRandomBytes(t *testing.T) {
	buf := bytes.Repeat([]byte{0xa5, 0x01, 0xff, 0x00, 0x7f}, 200)
	for n := 0; n <= len(buf); n += 7 {
		var got Message
		_ = wire.Unmarshal(buf[:n], &got)
	}
	// Mutate a valid frame byte-by-byte.
	for _, msg := range sampleMessages() {
		valid := wire.Marshal(&msg)
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xff
			var got Message
			_ = wire.Unmarshal(mut, &got)
		}
	}
}
