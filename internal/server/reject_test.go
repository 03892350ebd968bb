package server

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
)

// xidRecorder wraps a client's connection and records the xid of every
// reply in arrival order.
type xidRecorder struct {
	transport.Conn
	on   atomic.Bool // off during the connect handshake
	mu   sync.Mutex
	xids []int32
}

func (c *xidRecorder) RecvFrame() ([]byte, error) {
	frame, err := c.Conn.RecvFrame()
	if err == nil && c.on.Load() {
		var hdr wire.ReplyHeader
		if hdr.Deserialize(wire.NewDecoder(frame)) == nil && hdr.Xid > 0 { // skip events and pings
			c.mu.Lock()
			c.xids = append(c.xids, hdr.Xid)
			c.mu.Unlock()
		}
	}
	return frame, err
}

// pipelineOutcome tallies one session's SetAsync futures.
type pipelineOutcome struct {
	committed, lost int
	failures        []string
}

// pipelineSets keeps window SetAsync calls in flight on cl until stop
// closes, then waits for every future, giving up at ctx's deadline.
func pipelineSets(ctx context.Context, cl *client.Client, path string, window int, stop <-chan struct{}) pipelineOutcome {
	var out pipelineOutcome
	futures := make(chan *client.Future, window) // plus the one being awaited
	done := make(chan struct{})
	go func() {
		defer close(done)
		for f := range futures {
			select {
			case res := <-f.Done():
				switch {
				case res.Err == nil:
					out.committed++
				case isConnLoss(res.Err):
					out.lost++
				default:
					out.failures = append(out.failures, res.Err.Error())
				}
			case <-ctx.Done():
				out.failures = append(out.failures, "future unresolved at the deadline")
			}
		}
	}()
	payload := make([]byte, 1024)
	for {
		select {
		case <-stop:
			close(futures)
			<-done
			return out
		default:
		}
		futures <- cl.SetAsync(path, payload, -1)
	}
}

// TestPipelinedWritesResolveWhenLeaderStops keeps 40 SetAsync calls in
// flight on a leader session and on a follower session while the
// leader's zab peer stops mid-run. Refusals reach sessions
// asynchronously (the stopping loop's drain through OnReject, the
// forwarded-write reject message, the follower's role change), so the
// test pins that none is lost: every future resolves before a
// deadline, committed or CONNECTIONLOSS, and each session's replies
// arrive in xid order.
func TestPipelinedWritesResolveWhenLeaderStops(t *testing.T) {
	const window = 40
	tc := newTestCluster(t, 3)
	leader := tc.waitLeader(5 * time.Second)
	li := int(leader.ID()) - 1

	type pipelined struct {
		name string
		rec  *xidRecorder
		cl   *client.Client
		out  pipelineOutcome
	}
	sessions := []*pipelined{{name: "leader"}, {name: "follower"}}
	for i, s := range sessions {
		a, b := transport.NewChanPipe()
		s.rec = &xidRecorder{Conn: a}
		idx := (li + i) % len(tc.replicas)
		tc.wg.Add(1)
		go func() {
			defer tc.wg.Done()
			_ = tc.replicas[idx].ServeConn(b, nil)
		}()
		cl, err := client.NewSession(s.rec, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		s.rec.on.Store(true)
		s.cl = cl
		if _, err := cl.Create(ctxbg, "/"+s.name, nil, 0); err != nil {
			t.Fatal(err)
		}
	}

	ctx, cancel := context.WithTimeout(ctxbg, 20*time.Second)
	defer cancel()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *pipelined) {
			defer wg.Done()
			s.out = pipelineSets(ctx, s.cl, "/"+s.name, window, stop)
		}(s)
	}
	time.Sleep(150 * time.Millisecond)
	leader.Peer().Stop()
	// Long enough for the follower to time the leader out and the
	// survivors to elect a new one.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	for _, s := range sessions {
		t.Logf("%s session: %d committed, %d CONNECTIONLOSS", s.name, s.out.committed, s.out.lost)
		if len(s.out.failures) > 0 {
			t.Errorf("%s session: %d futures neither committed nor CONNECTIONLOSS, first: %s",
				s.name, len(s.out.failures), s.out.failures[0])
		}
		s.rec.mu.Lock()
		xids := append([]int32(nil), s.rec.xids...)
		s.rec.mu.Unlock()
		if want := 1 + s.out.committed + s.out.lost + len(s.out.failures); len(xids) != want {
			t.Errorf("%s session: %d replies arrived, want %d (the create and every Set)", s.name, len(xids), want)
		}
		for i := 1; i < len(xids); i++ {
			if xids[i] <= xids[i-1] {
				t.Errorf("%s session: reply xid %d arrived after xid %d", s.name, xids[i], xids[i-1])
				break
			}
		}
	}
	if sessions[0].out.lost == 0 {
		t.Error("leader session saw no CONNECTIONLOSS although its peer stopped while it kept writing")
	}
	if sessions[0].out.committed == 0 || sessions[1].out.committed == 0 {
		t.Errorf("a session committed nothing (leader %d, follower %d)",
			sessions[0].out.committed, sessions[1].out.committed)
	}
}
