package zab

import (
	"sync"
	"testing"
	"time"
)

// captureTransport records every Send for protocol-level assertions.
type captureTransport struct {
	mu   sync.Mutex
	sent []Message
	box  chan Message
}

func newCaptureTransport() *captureTransport {
	return &captureTransport{box: make(chan Message, 64)}
}

func (c *captureTransport) Send(to PeerID, msg Message) error {
	msg.From = to // irrelevant for these tests
	c.mu.Lock()
	c.sent = append(c.sent, msg)
	c.mu.Unlock()
	return nil
}

func (c *captureTransport) Receive() <-chan Message { return c.box }
func (c *captureTransport) Close() error            { return nil }

func (c *captureTransport) byKind(k Kind) []Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Message
	for _, m := range c.sent {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// TestFollowerInfoAdvertisesCommittedFrontier: a follower that buffered
// proposals beyond its commit point must NOT claim them in
// FOLLOWERINFO — the leader's diff would start past entries the
// follower never applied, silently diverging its state.
func TestFollowerInfoAdvertisesCommittedFrontier(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	// Not started: drive the loop-owned state directly.
	p.lastZxid = MakeZxid(3, 9) // buffered ahead of the commit point
	p.lastCommit = MakeZxid(3, 4)

	p.becomeFollower(2)
	infos := tr.byKind(KindFollowerInfo)
	if len(infos) != 1 || infos[0].Zxid != MakeZxid(3, 4) {
		t.Fatalf("becomeFollower FOLLOWERINFO = %+v, want Zxid=%#x (committed frontier)",
			infos, MakeZxid(3, 4))
	}

	// The paced tick retry must advertise the same committed frontier.
	p.nextSyncAsk = time.Time{}
	p.lastHeard[2] = time.Now()
	p.tick(time.Now())
	infos = tr.byKind(KindFollowerInfo)
	if len(infos) != 2 || infos[1].Zxid != MakeZxid(3, 4) {
		t.Fatalf("tick retry FOLLOWERINFO = %+v, want Zxid=%#x", infos, MakeZxid(3, 4))
	}
}

// TestEarlyFollowerInfoAnsweredOnActivation: a follower that settles
// the election first sends FOLLOWERINFO while its leader-to-be is still
// LOOKING. The leader answers it the moment it activates rather than
// leaving the follower unsynced until the paced retry; a FOLLOWERINFO
// from an earlier round is not answered.
func TestEarlyFollowerInfoAnsweredOnActivation(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	p.startElection()
	p.handleFollowerInfo(Message{Kind: KindFollowerInfo, From: 3, Zxid: 0})
	p.startElection() // a new round discards peer 3's ask
	p.handleFollowerInfo(Message{Kind: KindFollowerInfo, From: 2, Zxid: 0})
	if n := len(tr.byKind(KindSyncDiff)) + len(tr.byKind(KindSyncSnap)); n != 0 {
		t.Fatalf("LOOKING peer sent %d sync answers", n)
	}
	p.becomeLeader()
	diffs := tr.byKind(KindSyncDiff)
	if len(diffs) != 1 || diffs[0].From != 2 { // captureTransport stamps the destination in From
		t.Fatalf("sync answers on activation = %+v, want one SYNCDIFF to peer 2", diffs)
	}
	if len(p.earlyInfo) != 0 {
		t.Fatalf("earlyInfo not cleared on activation: %v", p.earlyInfo)
	}
}

// TestFollowerInfoRetryPaced: an unsynced follower re-requests at the
// sync-ask interval, not once per tick — a slow snapshot transfer must
// not be answered with a fresh snapshot every 10ms.
func TestFollowerInfoRetryPaced(t *testing.T) {
	tr := newCaptureTransport()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: tr})
	p.becomeFollower(2) // sends one FOLLOWERINFO, arms nextSyncAsk
	p.lastHeard[2] = time.Now()

	now := time.Now()
	for i := 0; i < 10; i++ {
		p.tick(now.Add(time.Duration(i) * p.cfg.TickInterval))
	}
	got := len(tr.byKind(KindFollowerInfo))
	// 10 ticks at the default 10ms span 90ms; with a 60ms ask interval
	// that allows at most one retry on top of the initial send.
	if got > 2 {
		t.Fatalf("%d FOLLOWERINFOs across 10 ticks; retries must be paced", got)
	}

	// Once synced, retries stop entirely.
	p.leaderSynced = true
	before := len(tr.byKind(KindFollowerInfo))
	for i := 0; i < 20; i++ {
		p.tick(now.Add(time.Duration(10+i) * p.cfg.TickInterval))
	}
	if got := len(tr.byKind(KindFollowerInfo)); got != before {
		t.Fatalf("synced follower still sent %d FOLLOWERINFOs", got-before)
	}
}
