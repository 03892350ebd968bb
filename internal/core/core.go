// Package core assembles the complete SecureKeeper system and the two
// baselines the paper evaluates against:
//
//   - Vanilla: plaintext client connections, plaintext storage — the
//     unmodified coordination service.
//   - TLS: secure-channel client connections terminated in untrusted
//     server code, plaintext storage — "TLS-ZK".
//   - SecureKeeper: secure-channel client connections terminated inside
//     a per-client entry enclave, storage encryption of paths and
//     payloads, and a counter enclave on the leader for sequential
//     nodes (§4).
//
// A Node is one replica host: the replica plus the variant's
// machine-local stack (secure channel identity, SGX runtime, key
// server, counter and entry enclaves). It accepts client connections
// over in-process pipes or TCP. NewNode runs one Node per process over
// the zabnet TCP mesh; a Cluster is N Nodes in one process over the
// in-process zab.Network, sharing one storage key.
package core

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/enclave"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/transport"
	"securekeeper/internal/wire"
	"securekeeper/internal/zab"
)

// Variant selects the system under test.
type Variant int

// Cluster variants, matching the evaluation's three configurations.
const (
	Vanilla Variant = iota + 1
	TLS
	SecureKeeper
)

// String returns the graph-label name of the variant.
func (v Variant) String() string {
	switch v {
	case Vanilla:
		return "Vanilla-ZK"
	case TLS:
		return "TLS-ZK"
	case SecureKeeper:
		return "SecureKeeper"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config parameterizes a cluster.
type Config struct {
	// Variant selects Vanilla, TLS or SecureKeeper.
	Variant Variant
	// Replicas is the voting-ensemble size (default 3).
	Replicas int
	// Observers adds that many non-voting replicas (ids after the
	// voters): they replay the committed stream and serve reads and
	// watches without widening the quorum.
	Observers int
	// TickInterval and ElectionTimeout tune the broadcast protocol.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// ApplySGXLatency makes the simulated enclave-crossing and paging
	// costs real wall-clock time (end-to-end benchmarks); when false
	// they are only accounted in the runtime's meter.
	ApplySGXLatency bool
	// SGXCost overrides the default cost model (ablation studies).
	SGXCost *sgx.CostModel
	// DataDir, when set, makes every replica durable: replica i keeps
	// its WAL and snapshots under DataDir/r<i+1>. A restarted replica
	// then recovers from disk instead of snapshot-syncing from scratch.
	DataDir       string
	SnapshotEvery int
	// WrapTransport, when set, wraps each replica's peer transport —
	// the seam the chaos injector hooks to impose drops, delays and
	// partitions on the in-process ensemble. reg is the host's metrics
	// registry, so the wrapper's fault counters land on that replica's
	// scrape. Applied again on RestartReplica.
	WrapTransport func(id zab.PeerID, inner zab.Transport, reg *obs.Registry) zab.Transport
}

// Cluster errors.
var (
	ErrNoLeader       = errors.New("core: no leader elected")
	ErrReplicaStopped = errors.New("core: replica is stopped")
)

// Cluster is a running ensemble: N Nodes over the in-process
// zab.Network.
type Cluster struct {
	cfg Config
	net *zab.Network
	// storageKey is the one SecureKeeper storage key every node's key
	// server releases (nil for baselines).
	storageKey []byte

	mu    sync.Mutex
	nodes []*Node
}

// NewCluster starts an ensemble and waits for leader election.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Replicas <= 0 {
		cfg.Replicas = 3
	}
	if cfg.Variant == 0 {
		cfg.Variant = Vanilla
	}
	c := &Cluster{cfg: cfg, net: zab.NewNetwork()}

	// SecureKeeper: one storage key shared by all enclaves. Each node's
	// key server releases it only to enclaves attested on that node's
	// own platform (§4.5).
	if cfg.Variant == SecureKeeper {
		c.storageKey = make([]byte, skcrypto.KeySize)
		if _, err := rand.Read(c.storageKey); err != nil {
			return nil, fmt.Errorf("core: storage key: %w", err)
		}
	}

	for i := 0; i < cfg.Replicas+cfg.Observers; i++ {
		n, err := c.newNode(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
	}

	// Wait for the ensemble to elect a leader.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.LeaderIndex() >= 0 {
			return c, nil
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	return nil, ErrNoLeader
}

// newNode builds replica i on its network endpoint, wrapped by
// WrapTransport with the node's own registry.
func (c *Cluster) newNode(i int) (*Node, error) {
	id := zab.PeerID(i + 1)
	reg := obs.NewRegistry()
	var tr zab.Transport = c.net.Endpoint(id)
	if c.cfg.WrapTransport != nil {
		tr = c.cfg.WrapTransport(id, tr, reg)
	}
	ncfg := NodeConfig{
		Variant:         c.cfg.Variant,
		ID:              id,
		TickInterval:    c.cfg.TickInterval,
		ElectionTimeout: c.cfg.ElectionTimeout,
		StorageKey:      c.storageKey,
		ApplySGXLatency: c.cfg.ApplySGXLatency,
		SGXCost:         c.cfg.SGXCost,
	}
	if c.cfg.DataDir != "" {
		ncfg.DataDir = fmt.Sprintf("%s/r%d", c.cfg.DataDir, id)
		ncfg.SnapshotEvery = c.cfg.SnapshotEvery
	}
	// Ids are 1-based; observers follow the voters.
	peers := make([]zab.PeerID, c.cfg.Replicas)
	for i := range peers {
		peers[i] = zab.PeerID(i + 1)
	}
	observers := make([]zab.PeerID, c.cfg.Observers)
	for i := range observers {
		observers[i] = zab.PeerID(c.cfg.Replicas + i + 1)
	}
	return newNode(ncfg, reg, tr, peers, observers)
}

// node returns the current incarnation of replica i.
func (c *Cluster) node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Variant returns the cluster's configuration variant.
func (c *Cluster) Variant() Variant { return c.cfg.Variant }

// Size returns the total member count (voters plus observers).
func (c *Cluster) Size() int { return len(c.nodes) }

// Voters returns the voting-ensemble size; replicas with index >=
// Voters() are observers.
func (c *Cluster) Voters() int { return c.cfg.Replicas }

// IsObserver reports whether replica i is a non-voting member.
func (c *Cluster) IsObserver(i int) bool { return i >= c.cfg.Replicas }

// Replica returns the i-th replica (tests and experiments).
func (c *Cluster) Replica(i int) *server.Replica { return c.node(i).replica }

// Runtime returns the i-th replica's SGX runtime (nil for baselines).
func (c *Cluster) Runtime(i int) *sgx.Runtime { return c.node(i).runtime }

// Obs returns the i-th replica's metrics registry.
func (c *Cluster) Obs(i int) *obs.Registry { return c.node(i).obs }

// LeaderIndex returns the index of the current leader, or -1.
func (c *Cluster) LeaderIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, n := range c.nodes {
		if !n.stopped() && n.replica.IsLeader() {
			return i
		}
	}
	return -1
}

// WaitForLeader blocks until a leader exists or the timeout expires.
func (c *Cluster) WaitForLeader(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if i := c.LeaderIndex(); i >= 0 {
			return i, nil
		}
		time.Sleep(time.Millisecond)
	}
	return -1, ErrNoLeader
}

// StopReplica simulates a crash of replica i: its network endpoint goes
// down and its sessions drop (Fig 12 fault injection).
func (c *Cluster) StopReplica(i int) {
	n := c.node(i)
	if n.stopped() {
		return
	}
	c.net.SetDown(zab.PeerID(i+1), true)
	n.Close()
}

// RestartReplica brings a stopped replica back under the same ensemble
// identity: a fresh Node rejoins over the shared network, resyncing its
// state from the leader (or recovering from its DataDir slice when the
// cluster is durable). This is the in-process counterpart of the
// multi-process harness's kill-and-re-exec, and the primitive behind
// chaos leader-churn schedules.
func (c *Cluster) RestartReplica(i int) error {
	if i < 0 || i >= c.Size() {
		return fmt.Errorf("core: restart replica %d of %d", i, c.Size())
	}
	if !c.node(i).stopped() {
		return nil
	}
	// Drop everything addressed to the previous incarnation BEFORE the
	// new peer starts consuming: stale election votes in the mailbox
	// could hand the fresh, empty-logged peer a ghost quorum and wipe
	// committed state when the survivors resync from it.
	c.net.Flush(zab.PeerID(i + 1))
	n, err := c.newNode(i)
	if err != nil {
		return err
	}
	c.net.SetDown(zab.PeerID(i+1), false)
	c.mu.Lock()
	c.nodes[i] = n
	c.mu.Unlock()
	return nil
}

// Stopped reports whether replica i has been stopped.
func (c *Cluster) Stopped(i int) bool { return c.node(i).stopped() }

// Close stops all replicas and the peer network.
func (c *Cluster) Close() {
	for i := range c.nodes {
		c.StopReplica(i)
	}
	c.net.Close()
}

// Connect opens a client session to replica i, wiring the transport and
// enclave stack dictated by the variant.
func (c *Cluster) Connect(i int, opts client.Options) (*client.Client, error) {
	return c.node(i).Connect(opts)
}

// ServeExternal serves an externally accepted (e.g. TCP) connection
// against replica i using the variant's full stack (see
// Node.ServeExternal). Blocks until the session ends.
func (c *Cluster) ServeExternal(i int, conn transport.Conn) error {
	return c.node(i).ServeExternal(conn)
}

// ReplicaPublicKey returns replica i's channel identity public key, the
// value a client pins out of band (§4.1).
func (c *Cluster) ReplicaPublicKey(i int) []byte { return c.node(i).ReplicaPublicKey() }

// StorageCodec returns a codec holding the cluster's storage key the
// way a freshly attested enclave on replica 0 would obtain it, letting
// tests inspect what the untrusted tree actually stores. Returns nil
// for baselines.
func (c *Cluster) StorageCodec() *skcrypto.Codec {
	if c.cfg.Variant != SecureKeeper {
		return nil
	}
	n := c.node(0)
	entry, err := enclave.NewEntry(n.runtime)
	if err != nil {
		return nil
	}
	defer entry.Close()
	quote := entry.Enclave().GenerateQuote(nil)
	key, err := n.keyServer.Release(quote)
	if err != nil {
		return nil
	}
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		return nil
	}
	return codec
}

// OpName maps an op code to the row label used in the paper's tables.
func OpName(op wire.OpCode) string { return op.String() }
