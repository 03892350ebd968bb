package server

import (
	"errors"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/wire"
)

// TestSequentialCreateZxidOrderFollowsSequence checks the fencing-token
// contract lock recipes rely on: among sequential children of one
// parent, a larger sequence number always carries a larger czxid. The
// leader allocates the number while prepping a create and the zxid when
// the zab loop takes it, so concurrent creates — from leader sessions
// and forwarded from followers — must reach the loop in prep order.
// Run with -race.
func TestSequentialCreateZxidOrderFollowsSequence(t *testing.T) {
	tc := newTestCluster(t, 3)
	setup := tc.connect(0, client.Options{})
	defer setup.Close()
	if _, err := setup.Create(ctxbg, "/fence", nil, 0); err != nil {
		t.Fatal(err)
	}

	// Four sessions per replica: the leader's two session readers race
	// each other and its forward worker.
	const workers, each = 12, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := tc.connect(w%3, client.Options{})
			defer cl.Close()
			for i := 0; i < each; i++ {
				// A follower not yet synced to the new leader sheds the
				// write unproposed; the client retries the same create,
				// as a lock recipe would.
				deadline := time.Now().Add(10 * time.Second)
				for {
					_, err := cl.Create(ctxbg, "/fence/lock-", nil, wire.FlagSequential)
					if err == nil {
						break
					}
					if !errors.Is(err, wire.ErrConnectionLoss.Error()) || time.Now().After(deadline) {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					time.Sleep(10 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()

	// The setup session's replica may still lag the commits the other
	// sessions saw acknowledged.
	if err := setup.Sync(ctxbg, "/fence"); err != nil {
		t.Fatal(err)
	}
	children, err := setup.Children(ctxbg, "/fence")
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != workers*each {
		t.Fatalf("%d children after %d successful creates", len(children), workers*each)
	}
	type node struct {
		seq   int
		czxid int64
	}
	nodes := make([]node, 0, len(children))
	for _, name := range children {
		seq, err := strconv.Atoi(name[len("lock-"):])
		if err != nil {
			t.Fatalf("child %q: %v", name, err)
		}
		st, err := setup.Exists(ctxbg, "/fence/"+name)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node{seq: seq, czxid: st.Czxid})
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].seq < nodes[j].seq })
	for i := 1; i < len(nodes); i++ {
		if nodes[i].czxid <= nodes[i-1].czxid {
			t.Fatalf("fencing-token inversion: seq %d has czxid %#x, not above seq %d's %#x",
				nodes[i].seq, nodes[i].czxid, nodes[i-1].seq, nodes[i-1].czxid)
		}
	}
}
