package zab

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

func batchRecord(zxid int64, path string) ProposalRecord {
	return ProposalRecord{
		Txn:    ztree.Txn{Zxid: zxid, Type: ztree.TxnCreate, Path: path, Data: []byte("d")},
		Origin: Origin{Peer: 1, Session: 42, Xid: int32(zxid)},
	}
}

func TestProposeBatchWireRoundTrip(t *testing.T) {
	in := ProposeBatch{
		Epoch:       3,
		CommitBound: MakeZxid(3, 7),
		Records: []ProposalRecord{
			batchRecord(MakeZxid(3, 8), "/a"),
			batchRecord(MakeZxid(3, 9), "/b"),
			batchRecord(MakeZxid(3, 10), "/c"),
		},
	}
	buf := wire.Marshal(&in)
	var out ProposeBatch
	if err := wire.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Epoch != in.Epoch || out.CommitBound != in.CommitBound {
		t.Fatalf("header mismatch: %+v", out)
	}
	if len(out.Records) != len(in.Records) {
		t.Fatalf("got %d records, want %d", len(out.Records), len(in.Records))
	}
	for i := range in.Records {
		if out.Records[i].Txn.Zxid != in.Records[i].Txn.Zxid ||
			out.Records[i].Txn.Path != in.Records[i].Txn.Path ||
			out.Records[i].Origin != in.Records[i].Origin {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out.Records[i], in.Records[i])
		}
	}
}

func TestProposeBatchWireRejectsDisorder(t *testing.T) {
	in := ProposeBatch{
		Epoch: 1,
		Records: []ProposalRecord{
			batchRecord(MakeZxid(1, 5), "/a"),
			batchRecord(MakeZxid(1, 4), "/b"), // out of order
		},
	}
	buf := wire.Marshal(&in)
	var out ProposeBatch
	if err := wire.Unmarshal(buf, &out); err == nil {
		t.Fatal("disordered batch deserialized without error")
	}
}

// followerFixture wires an unstarted peer into a Network so handler
// methods can be driven synchronously and their outbound messages
// observed on the leader's mailbox.
func followerFixture(t *testing.T) (*Peer, <-chan Message) {
	t.Helper()
	net := NewNetwork()
	leaderBox := net.Endpoint(PeerID(1)).Receive()
	p := NewPeer(Config{
		ID:        2,
		Peers:     []PeerID{1, 2, 3},
		Transport: net.Endpoint(PeerID(2)),
		Deliver:   func(Committed) {},
	})
	p.role.Store(int32(RoleFollowing))
	p.followTarget = 1
	p.epoch = 1
	return p, leaderBox
}

func recvMsg(t *testing.T, box <-chan Message) Message {
	t.Helper()
	select {
	case m := <-box:
		return m
	default:
		t.Fatal("no message sent")
		return Message{}
	}
}

func TestHandleProposeBatchAcksAsUnit(t *testing.T) {
	p, leaderBox := followerFixture(t)
	batch := []ProposalRecord{
		batchRecord(MakeZxid(1, 1), "/a"),
		batchRecord(MakeZxid(1, 2), "/b"),
		batchRecord(MakeZxid(1, 3), "/c"),
	}
	p.handleProposeBatch(Message{Kind: KindProposeBatch, From: 1, Epoch: 1, Zxid: 0, Batch: batch})

	if len(p.inflight) != 3 {
		t.Fatalf("inflight = %d, want 3", len(p.inflight))
	}
	ack := recvMsg(t, leaderBox)
	if ack.Kind != KindAck || ack.Zxid != MakeZxid(1, 3) {
		t.Fatalf("ack = %v zxid %#x, want cumulative ACK of %#x", ack.Kind, ack.Zxid, MakeZxid(1, 3))
	}
}

func TestHandleProposeBatchPiggybackedCommit(t *testing.T) {
	p, leaderBox := followerFixture(t)
	delivered := 0
	p.cfg.Deliver = func(Committed) { delivered++ }

	p.handleProposeBatch(Message{Kind: KindProposeBatch, From: 1, Epoch: 1, Zxid: 0, Batch: []ProposalRecord{
		batchRecord(MakeZxid(1, 1), "/a"),
		batchRecord(MakeZxid(1, 2), "/b"),
	}})
	recvMsg(t, leaderBox) // ack
	if delivered != 0 {
		t.Fatalf("delivered %d before any commit bound", delivered)
	}
	// Next frame carries commit bound (1,2): both proposals apply
	// without any explicit COMMIT frame.
	p.handleProposeBatch(Message{Kind: KindProposeBatch, From: 1, Epoch: 1, Zxid: MakeZxid(1, 2), Batch: []ProposalRecord{
		batchRecord(MakeZxid(1, 3), "/c"),
	}})
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 via piggybacked bound", delivered)
	}
	ack := recvMsg(t, leaderBox)
	if ack.Kind != KindAck || ack.Zxid != MakeZxid(1, 3) {
		t.Fatalf("ack zxid = %#x, want %#x", ack.Zxid, MakeZxid(1, 3))
	}
}

func TestHandleProposeBatchNeverAcksPastGap(t *testing.T) {
	p, leaderBox := followerFixture(t)
	// A frame containing (1,3)..(1,4) arrives but (1,1)..(1,2) were
	// shed: the cumulative ACK must stop before the gap — acking (1,4)
	// would let the leader count a false quorum for (1,1) — and the
	// follower must start recovery.
	p.handleProposeBatch(Message{Kind: KindProposeBatch, From: 1, Epoch: 1, Zxid: 0, Batch: []ProposalRecord{
		batchRecord(MakeZxid(1, 3), "/c"),
		batchRecord(MakeZxid(1, 4), "/d"),
	}})
	ack := recvMsg(t, leaderBox)
	if ack.Kind != KindAck || ack.Zxid != 0 {
		t.Fatalf("ack zxid = %#x, want 0 (frontier before the gap)", ack.Zxid)
	}
	resync := recvMsg(t, leaderBox)
	if resync.Kind != KindFollowerInfo {
		t.Fatalf("expected FOLLOWERINFO recovery after gap, got %v", resync.Kind)
	}
}

func TestHandleProposeBatchIgnoresDisorderedTail(t *testing.T) {
	p, leaderBox := followerFixture(t)
	p.handleProposeBatch(Message{Kind: KindProposeBatch, From: 1, Epoch: 1, Zxid: 0, Batch: []ProposalRecord{
		batchRecord(MakeZxid(1, 1), "/a"),
		batchRecord(MakeZxid(1, 1), "/dup"), // disordered: replay must stop here
		batchRecord(MakeZxid(1, 2), "/b"),
	}})
	if len(p.inflight) != 1 {
		t.Fatalf("inflight = %d, want 1 (tail after disorder dropped)", len(p.inflight))
	}
	ack := recvMsg(t, leaderBox)
	if ack.Zxid != MakeZxid(1, 1) {
		t.Fatalf("ack zxid = %#x, want %#x", ack.Zxid, MakeZxid(1, 1))
	}
}

func TestAckFrontierCrossesEpochBoundary(t *testing.T) {
	p, _ := followerFixture(t)
	p.epoch = 2
	// Committed through (1,7); inflight holds (1,8) then the first two
	// proposals of epoch 2.
	p.lastCommit = MakeZxid(1, 7)
	p.inflight[MakeZxid(1, 8)] = batchRecord(MakeZxid(1, 8), "/x")
	p.inflight[MakeZxid(2, 1)] = batchRecord(MakeZxid(2, 1), "/y")
	p.inflight[MakeZxid(2, 2)] = batchRecord(MakeZxid(2, 2), "/z")
	if got, want := p.ackFrontier(), MakeZxid(2, 2); got != want {
		t.Fatalf("frontier = %#x, want %#x", got, want)
	}
	// With (2,1) missing the frontier stops at the epoch boundary.
	delete(p.inflight, MakeZxid(2, 1))
	if got, want := p.ackFrontier(), MakeZxid(1, 8); got != want {
		t.Fatalf("frontier = %#x, want %#x", got, want)
	}
}

// TestConcurrentSubmitsBatchIntoFewerFrames floods the leader with
// concurrent submissions and asserts the PROPOSE frame count stays
// below one-frame-per-txn-per-follower, i.e. batching actually
// amortizes broadcast cost under contention.
func TestConcurrentSubmitsBatchIntoFewerFrames(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	const writers = 16
	const perWriter = 16
	const txns = writers * perWriter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				txn := ztree.Txn{Type: ztree.TxnCreate, Path: fmt.Sprintf("/w%d-%d", w, i), Data: []byte("d")}
				if err := leader.Submit(txn, Origin{Peer: leader.ID()}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h.waitCommitted(txns, h.ids, 10*time.Second)

	stats := leader.StatsSnapshot()
	followers := int64(len(h.ids) - 1)
	unbatched := stats.Proposals * followers
	if stats.ProposeFrames >= unbatched {
		t.Fatalf("ProposeFrames = %d, want < %d (1-per-txn-per-follower)", stats.ProposeFrames, unbatched)
	}
	t.Logf("txns=%d frames=%d (%.2f frames/txn vs %.0f unbatched)",
		stats.Proposals, stats.ProposeFrames,
		float64(stats.ProposeFrames)/float64(stats.Proposals), float64(followers))

	digest := h.trees[h.ids[0]].Digest()
	for _, id := range h.ids[1:] {
		if h.trees[id].Digest() != digest {
			t.Fatalf("peer %d diverged", id)
		}
	}
}
