package zab

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/obs"
)

// rejectLog records every Config.OnReject call.
type rejectLog struct {
	mu    sync.Mutex
	calls []rejectCall
}

type rejectCall struct {
	origin Origin
	err    error
}

func (l *rejectLog) onReject(origin Origin, err error) {
	l.mu.Lock()
	l.calls = append(l.calls, rejectCall{origin, err})
	l.mu.Unlock()
}

func (l *rejectLog) snapshot() []rejectCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]rejectCall(nil), l.calls...)
}

// unactivatedLeader returns an unstarted peer in the state a freshly
// elected leader holds before a quorum of followers has synced: it
// reports RoleLeading, so Propose queues, but the loop must refuse.
func unactivatedLeader(t *testing.T, log *rejectLog, reg *obs.Registry) *Peer {
	t.Helper()
	p := NewPeer(Config{ID: 1, Peers: []PeerID{1, 2, 3}, Transport: newCaptureTransport(),
		OnReject: log.onReject, Obs: reg})
	p.votes = map[PeerID]vote{}
	p.becomeLeader()
	if p.Role() != RoleLeading || len(p.synced) >= p.quorum() {
		t.Fatalf("fixture: role %v with %d/%d synced", p.Role(), len(p.synced), p.quorum())
	}
	return p
}

func TestProposeBeforeActivationRejectsThroughOnReject(t *testing.T) {
	var log rejectLog
	reg := obs.NewRegistry()
	p := unactivatedLeader(t, &log, reg)
	origin := Origin{Peer: 1, Session: 7, Xid: 3}
	if err := p.Propose(createTxn(1), origin); err != nil {
		t.Fatalf("Propose on a leading peer = %v, want nil (refusal is asynchronous)", err)
	}
	if calls := log.snapshot(); len(calls) != 0 {
		t.Fatalf("OnReject called before the loop saw the txn: %+v", calls)
	}
	p.handleSubmit(<-p.submit) // the loop's verdict on the queued txn

	calls := log.snapshot()
	if len(calls) != 1 {
		t.Fatalf("OnReject called %d times, want 1", len(calls))
	}
	if calls[0].origin != origin {
		t.Fatalf("OnReject origin = %+v, want %+v", calls[0].origin, origin)
	}
	if !errors.Is(calls[0].err, ErrNotLeader) {
		t.Fatalf("OnReject err = %v, want one wrapping ErrNotLeader", calls[0].err)
	}
	if len(p.outstanding) != 0 || len(p.batch) != 0 {
		t.Fatalf("refused txn was still proposed: %d outstanding, %d batched", len(p.outstanding), len(p.batch))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "zab_submit_rejected_total 1\n") {
		t.Fatalf("/metrics lacks zab_submit_rejected_total 1:\n%s", buf.String())
	}
}

func TestProposeOnFollowerFailsUpFront(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)
	h.submit(leader, createTxn(1), Origin{}) // activated: followers are synced
	for _, id := range h.ids {
		p := h.peers[id]
		if p == leader {
			continue
		}
		if err := p.Propose(createTxn(2), Origin{Peer: id}); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("Propose on follower %d = %v, want ErrNotLeader", id, err)
		}
	}
	h.submit(leader, createTxn(3), Origin{})
	h.waitCommitted(2, h.ids, 5*time.Second)
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, n := range h.rejects {
		if n != 0 {
			t.Fatalf("peer %d: OnReject called %d times for a refusal Propose already returned", id, n)
		}
	}
}

func TestStopRefusesQueuedSubmissions(t *testing.T) {
	var log rejectLog
	p := unactivatedLeader(t, &log, nil)
	p.synced[2] = struct{}{} // activated: the loop would accept these
	origins := []Origin{{Peer: 1, Xid: 1}, {Peer: 2, Session: 5, Xid: 2}}
	for i, o := range origins {
		if err := p.Propose(createTxn(i), o); err != nil {
			t.Fatalf("Propose %d: %v", i, err)
		}
	}
	submitted := make(chan error, 1)
	go func() { submitted <- p.Submit(createTxn(9), Origin{Peer: 1, Xid: 9}) }()
	for len(p.submit) < len(origins)+1 {
		time.Sleep(time.Millisecond)
	}

	// The loop stops with all three still queued: its exit drain must
	// answer each one.
	close(p.stop)
	p.refuseQueued()

	calls := log.snapshot()
	if len(calls) != len(origins) {
		t.Fatalf("OnReject called %d times, want %d", len(calls), len(origins))
	}
	for i, c := range calls {
		if c.origin != origins[i] || !errors.Is(c.err, ErrStopped) {
			t.Fatalf("refusal %d = (%+v, %v), want (%+v, ErrStopped)", i, c.origin, c.err, origins[i])
		}
	}
	select {
	case err := <-submitted:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("Submit queued at stop = %v, want ErrStopped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit queued at stop never returned")
	}
	if err := p.Propose(createTxn(3), Origin{Peer: 1}); !errors.Is(err, ErrStopped) {
		t.Fatalf("Propose after stop = %v, want ErrStopped", err)
	}
	if n := len(log.snapshot()); n != len(origins) {
		t.Fatalf("up-front refusal also reached OnReject (%d calls)", n)
	}
}

// TestStoppedLoopAnswersEverySubmission stops a started peer with
// submissions queued. Its loop may still take some of them (refused:
// the peer is no longer leading) or exit first; either way each one is
// answered exactly once, the rest by the exit drain with ErrStopped.
func TestStoppedLoopAnswersEverySubmission(t *testing.T) {
	for round := 0; round < 20; round++ {
		var log rejectLog
		p := unactivatedLeader(t, &log, nil)
		const queued = 3
		for i := 0; i < queued; i++ {
			if err := p.Propose(createTxn(i), Origin{Peer: 1, Xid: int32(i)}); err != nil {
				t.Fatalf("Propose %d: %v", i, err)
			}
		}
		p.Start()
		p.Stop()
		calls := log.snapshot()
		if len(calls) != queued {
			t.Fatalf("round %d: %d of %d queued submissions answered", round, len(calls), queued)
		}
		for i, c := range calls {
			if c.origin.Xid != int32(i) || !errors.Is(c.err, ErrStopped) && !errors.Is(c.err, ErrNotLeader) {
				t.Fatalf("round %d: refusal %d = (%+v, %v)", round, i, c.origin, c.err)
			}
		}
		if p.Role() == RoleLeading {
			t.Fatalf("round %d: stopped peer still reports %v", round, p.Role())
		}
	}
}

// TestStoppedLeaderStopsLeading: a stopped leader must not go on
// reporting RoleLeading, or its host would keep waiting for commits of
// the proposals it had in flight.
func TestStoppedLeaderStopsLeading(t *testing.T) {
	h := newHarness(t, 3)
	leader := h.leader(5 * time.Second)
	leader.Stop()
	if role := leader.Role(); role == RoleLeading {
		t.Fatalf("stopped leader reports %v", role)
	}
	if err := leader.Propose(createTxn(1), Origin{}); err == nil {
		t.Fatal("Propose on a stopped leader succeeded")
	}
}
