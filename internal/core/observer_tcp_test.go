package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
)

// tcpTopoEnsemble builds Nodes of one variant over a real TCP mesh
// from an explicit voter/observer topology, letting tests start members
// at different times (a late-joining observer must snapshot-sync).
type tcpTopoEnsemble struct {
	t          *testing.T
	variant    Variant
	storageKey []byte // SecureKeeper: the key every member shares
	topo       Topology
	listeners  map[zab.PeerID]net.Listener

	mu    sync.Mutex
	nodes map[zab.PeerID]*Node
}

func newTCPTopoEnsemble(t *testing.T, v Variant, nVoters, nObs int) *tcpTopoEnsemble {
	t.Helper()
	e := &tcpTopoEnsemble{
		t:       t,
		variant: v,
		topo: Topology{
			Voters:    make(map[zab.PeerID]string),
			Observers: make(map[zab.PeerID]string),
		},
		listeners: make(map[zab.PeerID]net.Listener),
		nodes:     make(map[zab.PeerID]*Node),
	}
	if v == SecureKeeper {
		e.storageKey = bytes.Repeat([]byte{0x42}, 16)
	}
	for i := 0; i < nVoters+nObs; i++ {
		id := zab.PeerID(i + 1)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		e.listeners[id] = ln
		if i < nVoters {
			e.topo.Voters[id] = ln.Addr().String()
		} else {
			e.topo.Observers[id] = ln.Addr().String()
		}
	}
	t.Cleanup(func() {
		e.mu.Lock()
		nodes := make([]*Node, 0, len(e.nodes))
		for _, n := range e.nodes {
			nodes = append(nodes, n)
		}
		e.mu.Unlock()
		for _, n := range nodes {
			n.Close()
		}
	})
	return e
}

// start brings member id up (idempotent per id; tests control timing).
func (e *tcpTopoEnsemble) start(id zab.PeerID) *Node { return e.startIn(id, e.topo) }

// startIn brings member id up under its own view of the ensemble, which
// may differ from e.topo (a reconfig joiner's seed members do not list
// it yet).
func (e *tcpTopoEnsemble) startIn(id zab.PeerID, topo Topology) *Node {
	e.t.Helper()
	node, err := NewNode(NodeConfig{
		Variant:         e.variant,
		ID:              id,
		Topology:        topo,
		MeshListener:    e.listeners[id],
		StorageKey:      e.storageKey,
		TickInterval:    5 * time.Millisecond,
		ElectionTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.mu.Lock()
	e.nodes[id] = node
	e.mu.Unlock()
	return node
}

func (e *tcpTopoEnsemble) startVoters() []*Node {
	nodes := make([]*Node, 0, len(e.topo.Voters))
	for _, id := range e.topo.VoterIDs() {
		nodes = append(nodes, e.start(id))
	}
	return nodes
}

// leader waits until one of the started members leads and returns it.
func (e *tcpTopoEnsemble) leader() *Node {
	e.t.Helper()
	var leader *Node
	waitForCond(e.t, 15*time.Second, "TCP-mesh ensemble leader", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, n := range e.nodes {
			if n.IsLeader() {
				leader = n
				return true
			}
		}
		return false
	})
	return leader
}

// TestTCPMeshObserversServeReadsAndForwardWrites is the tentpole's
// acceptance shape: a 3-voter + 2-observer ensemble over real TCP
// meshes. Observers tail the leader's commit stream, serve reads and
// watches from their replayed tree, forward writes to the leader, and
// stay OBSERVING throughout.
func TestTCPMeshObserversServeReadsAndForwardWrites(t *testing.T) {
	e := newTCPTopoEnsemble(t, Vanilla, 3, 2)
	e.startVoters()
	obs4, obs5 := e.start(4), e.start(5)
	leader := e.leader()

	// Observers settle into OBSERVING behind the leader.
	for _, o := range []*Node{obs4, obs5} {
		o := o
		waitForCond(t, 15*time.Second, "observer to settle", func() bool {
			return o.Role() == zab.RoleObserving && o.Leader() == leader.ID()
		})
	}

	lcl, err := leader.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lcl.Close()
	retryWrite(t, "create", func() error {
		_, err := lcl.Create(ctxbg, "/obs", []byte("v1"), 0)
		return err
	})

	for i, o := range []*Node{obs4, obs5} {
		ocl, err := o.Connect(client.Options{})
		if err != nil {
			t.Fatal(err)
		}

		// The observer's replayed tree converges on the leader's write.
		data, err := syncGet(ocl, "/obs")
		if err != nil || !bytes.Equal(data, []byte("v1")) {
			t.Fatalf("observer %d: /obs = %q, %v", i+4, data, err)
		}

		// Writes submitted through the observer session are forwarded to
		// the leader and committed; Sync then Get on the same session
		// gives read-your-writes from the observer's own tree.
		path := fmt.Sprintf("/obs-fwd-%d", i)
		if _, err := ocl.Create(ctxbg, path, []byte("mine"), 0); err != nil {
			t.Fatalf("observer %d forwarded create: %v", i+4, err)
		}
		data, err = syncGet(ocl, path)
		if err != nil || !bytes.Equal(data, []byte("mine")) {
			t.Fatalf("observer %d read-your-writes: %s = %q, %v", i+4, path, data, err)
		}

		// A watch armed on the observer fires off the replayed stream.
		_, _, w, err := ocl.GetW(ctxbg, path)
		if err != nil {
			t.Fatalf("observer %d GetW: %v", i+4, err)
		}
		if _, err := lcl.Set(ctxbg, path, []byte("changed"), -1); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-w.Events():
			if ev.Path != path {
				t.Fatalf("observer %d watch event path = %q", i+4, ev.Path)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("observer %d watch never fired", i+4)
		}
		_ = ocl.Close()

		if o.Role() != zab.RoleObserving {
			t.Fatalf("observer %d role = %s after serving", i+4, o.Role())
		}
	}
}

// TestTCPMeshLateObserverSnapshotSyncs: an observer that joins after
// the ensemble has committed state must catch up (snapshot/diff sync
// from its committed frontier) and then tail live commits.
func TestTCPMeshLateObserverSnapshotSyncs(t *testing.T) {
	e := newTCPTopoEnsemble(t, Vanilla, 3, 1)
	e.startVoters()
	leader := e.leader()

	cl, err := leader.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	retryWrite(t, "create base", func() error {
		_, err := cl.Create(ctxbg, "/late", nil, 0)
		return err
	})
	for i := 0; i < 30; i++ {
		if _, err := cl.Create(ctxbg, fmt.Sprintf("/late/n%02d", i), []byte("x"), 0); err != nil {
			t.Fatal(err)
		}
	}

	// Only now does the observer come up: everything above predates it.
	obs := e.start(4)
	waitForCond(t, 15*time.Second, "late observer to settle", func() bool {
		return obs.Role() == zab.RoleObserving && obs.Leader() == leader.ID()
	})

	ocl, err := obs.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ocl.Close()
	kids, err := ocl.Children(ctxbg, "/late")
	if err == nil && len(kids) != 30 {
		err = fmt.Errorf("children = %d, want 30", len(kids))
	}
	if err != nil {
		// The snapshot may still be applying; settle through a sync.
		waitForCond(t, 15*time.Second, "late observer to catch up", func() bool {
			if e := ocl.Sync(ctxbg, "/late"); e != nil {
				return false
			}
			kids, e := ocl.Children(ctxbg, "/late")
			return e == nil && len(kids) == 30
		})
	}

	// And it tails commits made after its join.
	if _, err := cl.Create(ctxbg, "/late/tail", []byte("t"), 0); err != nil {
		t.Fatal(err)
	}
	data, err := syncGet(ocl, "/late/tail")
	if err != nil || !bytes.Equal(data, []byte("t")) {
		t.Fatalf("late observer tail: %q, %v", data, err)
	}
}

// serveNodeTCP exposes a node's client surface on an ephemeral TCP
// listener (the skserver shape), for exercising client.Dial.
func serveNodeTCP(t *testing.T, n *Node) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				_ = n.ServeExternal(transport.NewFramedConn(conn))
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialFailoverAndReadPreference drives the redesigned client entry
// point against a live mixed ensemble: dead addresses are skipped,
// Leader lands on the leader, ObserverOnly lands on an observer, and
// an unsatisfiable preference fails loudly instead of downgrading.
func TestDialFailoverAndReadPreference(t *testing.T) {
	e := newTCPTopoEnsemble(t, Vanilla, 3, 1)
	voters := e.startVoters()
	obs := e.start(4)
	leader := e.leader()
	waitForCond(t, 15*time.Second, "observer to settle", func() bool {
		return obs.Role() == zab.RoleObserving
	})

	// A dead address first: Dial must fail over past it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := deadLn.Addr().String()
	_ = deadLn.Close()

	addrs := []string{dead}
	voterAddrs := make([]string, 0, len(voters))
	for _, n := range voters {
		a := serveNodeTCP(t, n)
		addrs = append(addrs, a)
		voterAddrs = append(voterAddrs, a)
	}
	obsAddr := serveNodeTCP(t, obs)
	addrs = append(addrs, obsAddr)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Nearest: any live member serves; the session must work end to end.
	cl, err := client.Dial(ctx, addrs, client.Options{})
	if err != nil {
		t.Fatalf("Dial nearest: %v", err)
	}
	retryWrite(t, "create via nearest", func() error {
		_, err := cl.Create(ctxbg, "/dial", []byte("d"), 0)
		return err
	})
	_ = cl.Close()

	// Leader: the session's serving replica must report LEADING.
	cl, err = client.Dial(ctx, addrs, client.Options{ReadPreference: client.Leader})
	if err != nil {
		t.Fatalf("Dial leader: %v", err)
	}
	st, err := cl.ServerStats(ctx)
	if err != nil || st.Role != zab.RoleLeading.String() {
		t.Fatalf("leader-preferred session role = %q, %v", st.Role, err)
	}
	if st.Leader != int64(leader.ID()) {
		t.Fatalf("stats leader = %d, want %d", st.Leader, leader.ID())
	}
	_ = cl.Close()

	// ObserverOnly: must land on the observer.
	cl, err = client.Dial(ctx, addrs, client.Options{ReadPreference: client.ObserverOnly})
	if err != nil {
		t.Fatalf("Dial observer-only: %v", err)
	}
	st, err = cl.ServerStats(ctx)
	if err != nil || st.Role != zab.RoleObserving.String() {
		t.Fatalf("observer-preferred session role = %q, %v", st.Role, err)
	}
	data, err := syncGet(cl, "/dial")
	if err != nil || !bytes.Equal(data, []byte("d")) {
		t.Fatalf("observer session read: %q, %v", data, err)
	}
	_ = cl.Close()

	// ObserverOnly against voters alone cannot be satisfied.
	_, err = client.Dial(ctx, voterAddrs, client.Options{ReadPreference: client.ObserverOnly})
	if !errors.Is(err, client.ErrNoMatchingReplica) {
		t.Fatalf("observer-only against voters: err = %v, want ErrNoMatchingReplica", err)
	}

	// All-dead address list fails outright.
	if _, err := client.Dial(ctx, []string{dead}, client.Options{}); err == nil {
		t.Fatal("Dial of a dead address succeeded")
	}
}

// TestServerStatsReportsLoad checks the stat op's counters where they
// are knowable: session count includes the asking session, watches
// reflect registrations, and zxid advances with commits.
func TestServerStatsReportsLoad(t *testing.T) {
	e := newTCPTopoEnsemble(t, Vanilla, 1, 0)
	node := e.startVoters()[0]
	e.leader()

	cl, err := node.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st, err := cl.ServerStats(ctxbg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != zab.RoleLeading.String() || st.Leader != int64(node.ID()) {
		t.Fatalf("stats identity = %+v", st)
	}
	if st.Sessions < 1 {
		t.Fatalf("sessions = %d, want >= 1", st.Sessions)
	}

	before := st.Zxid
	if _, err := cl.Create(ctxbg, "/stat", nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := cl.GetW(ctxbg, "/stat"); err != nil {
		t.Fatal(err)
	}
	st, err = cl.ServerStats(ctxbg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Zxid <= before {
		t.Fatalf("zxid did not advance: %d -> %d", before, st.Zxid)
	}
	if st.Watches < 1 {
		t.Fatalf("watches = %d, want >= 1", st.Watches)
	}
}
