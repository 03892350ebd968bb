package zab

import (
	"testing"
	"time"
)

// TestNewLeaderAckReplaysOutstanding: a follower that (re)syncs while
// the leader holds uncommitted proposals must receive them again. Sync
// transfers only committed history and PROPOSE frames go to
// already-synced followers exactly once, so without the replay a
// proposal whose only recipient shed it is held by no live follower —
// it can never reach quorum, and in-order commit head-of-line-blocks
// everything behind it.
func TestNewLeaderAckReplaysOutstanding(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	// Unstarted: drive the loop-owned state directly. Peer 1 is an
	// activated leader (self + peer 3 synced) with two proposals whose
	// PROPOSE fan-out has already happened.
	p.votes = map[PeerID]vote{}
	p.becomeLeader()
	p.synced[3] = struct{}{}
	for i := 1; i <= 2; i++ {
		req := submitReq{txn: createTxn(i), verdict: make(chan error, 1)}
		p.handleSubmit(req)
		if err := <-req.verdict; err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.flushProposals()
	before := len(tr.byKind(KindProposeBatch))

	// Peer 2 completes sync. Its diff covered only committed history
	// (here: nothing), so the ack must trigger an outstanding replay.
	p.handleNewLeaderAck(Message{Kind: KindNewLeaderAck, From: 2})

	batches := tr.byKind(KindProposeBatch)
	if len(batches) != before+1 {
		t.Fatalf("ProposeBatch frames after NewLeaderAck = %d, want %d", len(batches), before+1)
	}
	replay := batches[len(batches)-1]
	if replay.From != 2 { // captureTransport stamps the destination in From
		t.Fatalf("replay sent to peer %d, want 2", replay.From)
	}
	if len(replay.Batch) != 2 {
		t.Fatalf("replay carried %d records, want 2", len(replay.Batch))
	}
	for i, rec := range replay.Batch {
		if want := MakeZxid(p.epoch, int64(i+1)); rec.Txn.Zxid != want {
			t.Fatalf("replay[%d].Zxid = %#x, want %#x", i, rec.Txn.Zxid, want)
		}
	}

	// A follower with nothing outstanding must not be sent an empty frame.
	p.outstanding = nil
	p.handleNewLeaderAck(Message{Kind: KindNewLeaderAck, From: 3})
	if got := len(tr.byKind(KindProposeBatch)); got != before+1 {
		t.Fatalf("empty outstanding produced a replay frame (%d frames)", got)
	}
}

// TestVotesAdvertiseCommittedFrontier: elections must compare durable
// history, not lastZxid. lastZxid counts buffered-but-uncommitted
// proposals (discarded on every role change) and the bare epoch marker
// a leader stamps at activation — voting with it lets a peer with stale
// committed state outbid peers holding real history, and each failed
// reign inflates its marker further so it keeps winning elections it
// cannot serve.
func TestVotesAdvertiseCommittedFrontier(t *testing.T) {
	committed := MakeZxid(3, 4)

	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	p.lastZxid = MakeZxid(7, 0) // phantom activation marker from a dead reign
	p.lastCommit = committed
	p.startElection()
	votes := tr.byKind(KindVote)
	if len(votes) != 2 {
		t.Fatalf("startElection broadcast %d votes, want 2", len(votes))
	}
	for _, v := range votes {
		if v.VoteZxid != committed {
			t.Fatalf("broadcast VoteZxid = %#x, want committed frontier %#x", v.VoteZxid, committed)
		}
	}

	// Settled peers answering a stray vote follow the same rule.
	tr2 := newCaptureTransport()
	p2 := NewPeer(Config{ID: 2, Peers: []PeerID{1, 2, 3}, Transport: tr2})
	p2.lastZxid = MakeZxid(7, 0)
	p2.lastCommit = committed
	p2.setRole(RoleFollowing, 3)
	// Only a follower whose leader answered its sync this term may
	// answer votes at all (see TestSurvivorsDoNotResurrectDeadLeader).
	p2.leaderSynced = true
	p2.handleVote(Message{Kind: KindVote, From: 1, Epoch: 9, VoteFor: 1, VoteZxid: 0})
	replies := tr2.byKind(KindVote)
	if len(replies) != 1 || !replies[0].VoteReply {
		t.Fatalf("settled peer replies = %+v, want one VoteReply", replies)
	}
	if replies[0].VoteZxid != committed {
		t.Fatalf("reply VoteZxid = %#x, want committed frontier %#x", replies[0].VoteZxid, committed)
	}
}

// TestOrphanedProposalRecoversOnResync is the end-to-end wedge
// regression the SIGKILL crash harness exposed: a proposal whose
// PROPOSE fan-out is lost to every follower must still commit once the
// followers resync. Without the NewLeaderAck replay this deadlocks —
// the resync diff is empty (nothing newly committed), the orphan is
// re-sent to nobody, and in-order commit blocks every later write while
// the leader keeps accepting them.
func TestOrphanedProposalRecoversOnResync(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)

	// Settle activation with one committed write everywhere.
	h.submit(leader, createTxn(0), Origin{Peer: leader.ID()})
	h.waitCommitted(1, h.ids, 5*time.Second)

	// Cut the leader off from BOTH followers just long enough for one
	// proposal's fan-out to vanish: the submit succeeds (the leader is
	// activated) but the frame reaches nobody. Keep the cut well under
	// the election timeout so no role changes.
	var followers []PeerID
	for _, id := range h.ids {
		if id != leader.ID() {
			followers = append(followers, id)
		}
	}
	for _, f := range followers {
		h.net.Cut(leader.ID(), f, true)
	}
	if err := leader.Submit(createTxn(1), Origin{Peer: leader.ID()}); err != nil {
		t.Fatalf("submit under cut: %v", err)
	}
	time.Sleep(20 * time.Millisecond) // let the doomed flush happen while cut
	for _, f := range followers {
		h.net.Cut(leader.ID(), f, false)
	}

	// The next write's frame reaches the followers but acks a frontier
	// short of the orphan, forcing both to resync; only the replay on
	// their NewLeaderAck can resurrect it.
	if err := leader.Submit(createTxn(2), Origin{Peer: leader.ID()}); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
	h.waitCommitted(3, h.ids, 5*time.Second)
}
