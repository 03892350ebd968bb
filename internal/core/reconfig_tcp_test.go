package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/zab"
)

// TestReconfigGrowShrinkSecureMesh drives dynamic membership end to end
// over the attested, encrypted SecureKeeper mesh: a 3-voter ensemble
// adds a fresh replica as an observer, promotes it to voter once the
// leader has synced it, and finally removes it again. The joiner must
// snapshot-sync before it counts, the quorum must switch at the
// reconfig commit, and the removed replica must park read-only instead
// of campaigning.
func TestReconfigGrowShrinkSecureMesh(t *testing.T) {
	// Four members up front so every address is known, but the seed
	// voters' topology lists only the first three: member 4 joins by
	// reconfig, under the ensemble's full view (4 as an observer).
	e := newTCPTopoEnsemble(t, SecureKeeper, 3, 1)
	addrs := e.topo.Addrs()
	seedTopo := Topology{
		Voters:    e.topo.Voters,
		Observers: map[zab.PeerID]string{},
	}
	voters := []*Node{e.startIn(1, seedTopo), e.startIn(2, seedTopo), e.startIn(3, seedTopo)}
	leader := e.leader()
	cl, err := leader.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	retryWrite(t, "seed write", func() error {
		_, err := cl.Create(ctxbg, "/grow", []byte("before-join"), 0)
		return err
	})

	// Promoting an id nobody has added must be refused outright.
	if _, err := cl.Reconfig(ctxbg, "promote", 4, ""); err == nil {
		t.Fatal("promote of a non-member succeeded")
	}

	// Add 4 as an observer, then boot it. Its own topology lists itself
	// as an observer; the incumbents learn its address from the
	// committed reconfig and accept its attested dial.
	resp, err := cl.Reconfig(ctxbg, "add", 4, addrs[4])
	if err != nil {
		t.Fatalf("reconfig add: %v", err)
	}
	if !strings.Contains(resp.Ensemble, "observers=4") {
		t.Fatalf("post-add ensemble = %q, want observer 4", resp.Ensemble)
	}
	joiner := e.start(4)
	waitForCond(t, 15*time.Second, "joiner to observe", func() bool {
		return joiner.Role() == zab.RoleObserving && joiner.Leader() == leader.ID()
	})

	// Promote once the leader has synced it; until then the gate refuses
	// (the not-counted-before-sync guarantee), so retry.
	waitForCond(t, 15*time.Second, "promote to be admitted", func() bool {
		r, err := cl.Reconfig(ctxbg, "promote", 4, "")
		if err != nil {
			return false
		}
		resp = r
		return true
	})
	if !strings.Contains(resp.Ensemble, "voters=1,2,3,4") {
		t.Fatalf("post-promote ensemble = %q, want voters=1,2,3,4", resp.Ensemble)
	}
	waitForCond(t, 15*time.Second, "promoted joiner to follow", func() bool {
		return joiner.Role() == zab.RoleFollowing
	})

	// The grown ensemble commits writes and the new voter serves them.
	retryWrite(t, "post-promote write", func() error {
		_, err := cl.Create(ctxbg, "/grow/after-promote", []byte("four-voters"), 0)
		return err
	})
	jcl, err := joiner.Connect(client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := syncGet(jcl, "/grow/after-promote")
	if err != nil || !bytes.Equal(data, []byte("four-voters")) {
		t.Fatalf("joiner read: %q, %v", data, err)
	}

	st, err := cl.ServerStats(ctxbg)
	if err != nil || !strings.Contains(st.Ensemble, "voters=1,2,3,4") {
		t.Fatalf("stats ensemble = %q, %v", st.Ensemble, err)
	}

	// Shrink back: the removed replica parks, refuses writes, and the
	// survivors keep committing on the 3-voter quorum.
	if _, err := cl.Reconfig(ctxbg, "remove", 4, ""); err != nil {
		t.Fatalf("reconfig remove: %v", err)
	}
	waitForCond(t, 15*time.Second, "removed replica to park", func() bool {
		return joiner.Role() == zab.RoleRemoved
	})
	waitForCond(t, 15*time.Second, "removed replica to refuse writes", func() bool {
		_, err := jcl.Create(ctxbg, "/grow/from-removed", nil, 0)
		return err != nil
	})
	_ = jcl.Close()
	retryWrite(t, "post-remove write", func() error {
		_, err := cl.Create(ctxbg, "/grow/after-remove", []byte("three-again"), 0)
		return err
	})
	for i, n := range voters {
		waitForCond(t, 15*time.Second, fmt.Sprintf("voter %d ensemble view", i+1), func() bool {
			vs, os := n.Replica().Peer().Membership()
			return len(vs) == 3 && len(os) == 0
		})
	}
}
