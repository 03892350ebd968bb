package core

import (
	"sync"
	"testing"

	"securekeeper/internal/client"
)

// TestRestartReplicaWhileConnecting restarts one SecureKeeper replica
// while clients keep connecting to another. Each replica host owns its
// key server (§4.5 per-machine provisioning), so provisioning the
// restarted host must share no unsynchronized state with entry-enclave
// provisioning on the other host. Run under -race.
func TestRestartReplicaWhileConnecting(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			cl, err := c.Connect(0, client.Options{})
			if err != nil {
				t.Errorf("connect to replica 0: %v", err)
				return
			}
			_ = cl.Close()
		}
	}()
	for k := 0; k < 5; k++ {
		c.StopReplica(2)
		if err := c.RestartReplica(2); err != nil {
			t.Fatalf("restart %d: %v", k, err)
		}
	}
	close(done)
	wg.Wait()

	// The ensemble still serves a client on the connected replica.
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Exists(ctxbg, "/"); err != nil {
		t.Fatal(err)
	}
}
