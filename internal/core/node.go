package core

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"net"
	"sync"
	"time"

	"securekeeper/internal/client"
	"securekeeper/internal/enclave"
	"securekeeper/internal/obs"
	"securekeeper/internal/server"
	"securekeeper/internal/sgx"
	"securekeeper/internal/transport"
	"securekeeper/internal/zab"
	"securekeeper/internal/zabnet"
)

// NodeConfig parameterizes one ensemble member.
type NodeConfig struct {
	// Variant selects Vanilla, TLS or SecureKeeper.
	Variant Variant
	// ID is this replica's ensemble identity; Topology describes every
	// member (including ID) — voter/observer role and peer-mesh TCP
	// address. Parse one with ParseTopology.
	ID       zab.PeerID
	Topology Topology
	// MeshListener optionally provides a pre-bound peer listener
	// (tests use ephemeral ports); nil listens on Peers[ID].
	MeshListener net.Listener
	// TickInterval and ElectionTimeout tune the broadcast protocol.
	TickInterval    time.Duration
	ElectionTimeout time.Duration
	// StorageKey is the ensemble-wide storage key for SecureKeeper: in
	// a multi-process deployment every replica's key server must
	// release the same key or replicas would store mutually
	// undecryptable ciphertext. Nil generates a random key (only valid
	// for a single-replica ensemble). Ignored for baselines.
	StorageKey []byte
	// DataDir, when set, makes the replica durable (see server.Config).
	DataDir       string
	SnapshotEvery int
	// LogSegmentBytes is the WAL rotation threshold (0 = default).
	LogSegmentBytes int64
	// ApplySGXLatency and SGXCost mirror the Cluster knobs.
	ApplySGXLatency bool
	SGXCost         *sgx.CostModel
	// Logf, when set, receives mesh connection diagnostics.
	Logf func(format string, args ...any)
}

// Node is one replica host: the replica plus its machine-local SGX
// state — channel identity, runtime, counter enclave, sealed key store
// and a key server that trusts only this platform (§4.5). NewNode runs
// it as one process of a multi-process ensemble over a zabnet TCP
// mesh; a Cluster is N Nodes over the in-process zab.Network.
type Node struct {
	cfg       NodeConfig
	mesh      *zabnet.Mesh // nil for a Cluster member
	replica   *server.Replica
	identity  *transport.Identity
	obs       *obs.Registry
	keyServer *enclave.KeyServer // SecureKeeper only, like the fields below
	runtime   *sgx.Runtime
	counter   *enclave.Counter
	sealed    *enclave.SealedKeyStore
	// ecallBatches records messages per entry-enclave crossing.
	ecallBatches ecallBatchMetrics

	mu     sync.Mutex
	closed bool
	// entryProvisioned records whether the initial remote attestation
	// for the entry-enclave measurement has happened on this node;
	// later enclaves unseal instead (§4.5).
	entryProvisioned bool
	wg               sync.WaitGroup
}

// NewNode starts the replica: the mesh begins dialing its peers
// immediately and the replica joins the ensemble's election. Unlike
// NewCluster it does NOT wait for a leader — a lone first process of a
// 3-replica ensemble must come up and wait for quorum.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Variant == 0 {
		cfg.Variant = Vanilla
	}
	if cfg.ID <= 0 {
		return nil, fmt.Errorf("core: node id %d must be positive", cfg.ID)
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Topology.Has(cfg.ID) {
		return nil, fmt.Errorf("core: topology has no entry for node %d", cfg.ID)
	}
	if cfg.Topology.Addr(cfg.ID) == "" && cfg.MeshListener == nil {
		return nil, fmt.Errorf("core: topology has no address for node %d", cfg.ID)
	}
	if cfg.Variant == SecureKeeper && cfg.StorageKey == nil && cfg.Topology.Size() > 1 {
		return nil, fmt.Errorf("core: a multi-replica SecureKeeper ensemble needs a shared storage key")
	}

	// One registry per node process: the mesh, broadcast, storage and
	// server layers all register into it, so a single scrape covers the
	// whole replica.
	reg := obs.NewRegistry()
	var secure *zabnet.SecureConfig
	if cfg.Variant == SecureKeeper {
		sc, err := meshSecureConfig(cfg.StorageKey)
		if err != nil {
			return nil, err
		}
		secure = sc
	}
	mesh, err := zabnet.NewMesh(zabnet.Config{
		ID:        cfg.ID,
		Peers:     cfg.Topology.Addrs(),
		Observers: cfg.Topology.ObserverSet(),
		Listener:  cfg.MeshListener,
		Logf:      cfg.Logf,
		Obs:       reg,
		Secure:    secure,
	})
	if err != nil {
		return nil, err
	}
	n, err := newNode(cfg, reg, mesh, cfg.Topology.VoterIDs(), cfg.Topology.ObserverIDs())
	if err != nil {
		_ = mesh.Close()
		return nil, err
	}
	n.mesh = mesh
	return n, nil
}

// newNode assembles one replica host on a ready peer transport: the
// channel identity; for SecureKeeper the key server, SGX runtime and
// counter enclave; and the replica itself. reg is the host's metrics
// registry (one per host, like production; instrumentation is always
// on — exposition is what's opt-in).
func newNode(cfg NodeConfig, reg *obs.Registry, tr zab.Transport, voters, observers []zab.PeerID) (*Node, error) {
	if cfg.Variant < Vanilla || cfg.Variant > SecureKeeper {
		return nil, fmt.Errorf("core: unknown variant %d", cfg.Variant)
	}
	identity, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	n := &Node{cfg: cfg, identity: identity, obs: reg}
	scfg := server.Config{
		ID:              cfg.ID,
		Peers:           voters,
		Observers:       observers,
		Transport:       tr,
		TickInterval:    cfg.TickInterval,
		ElectionTimeout: cfg.ElectionTimeout,
		DataDir:         cfg.DataDir,
		SnapshotEvery:   cfg.SnapshotEvery,
		LogSegmentBytes: cfg.LogSegmentBytes,
		Logf:            cfg.Logf,
		Obs:             reg,
		SeqAppend:       server.PlainSequenceAppender,
	}
	if cfg.Variant == SecureKeeper {
		if err := n.provisionSGX(); err != nil {
			return nil, err
		}
		scfg.SeqAppend = n.counter.AppendSequence
	}
	n.replica = server.NewReplica(scfg)
	return n, nil
}

// provisionSGX brings up the host's SGX state: a key server that
// trusts this platform alone, the runtime, and the counter enclave,
// remote-attested for the storage key.
func (n *Node) provisionSGX() error {
	ks, err := newKeyServer(n.cfg.StorageKey)
	if err != nil {
		return err
	}
	cost := sgx.DefaultCostModel()
	if n.cfg.SGXCost != nil {
		cost = *n.cfg.SGXCost
	}
	n.keyServer = ks
	n.runtime = sgx.NewRuntime(sgx.EPCUsableBytes, cost, n.cfg.ApplySGXLatency)
	n.ecallBatches = registerEcallMetrics(n.obs, n.runtime)
	n.sealed = enclave.NewSealedKeyStore()
	ks.TrustPlatform(n.runtime.QuoteVerificationKey())

	counter, err := enclave.NewCounter(n.runtime)
	if err != nil {
		return err
	}
	if err := enclave.ProvisionCounter(counter, ks, n.sealed); err != nil {
		counter.Close()
		return err
	}
	n.counter = counter
	return nil
}

// newKeyServer builds the host's key-release administrator. A nil
// storageKey generates a fresh random key (single-replica ensembles);
// otherwise every host's key server releases the same key, playing the
// role of the paper's central key server that all enclaves attest
// against.
func newKeyServer(storageKey []byte) (*enclave.KeyServer, error) {
	trusted := []sgx.Measurement{
		sgx.MeasureCode(enclave.EntryCodeIdentity),
		sgx.MeasureCode(enclave.CounterCodeIdentity),
	}
	if storageKey != nil {
		return enclave.NewKeyServerWithKey(storageKey, trusted...)
	}
	return enclave.NewKeyServer(trusted...)
}

// meshCodeIdentity is the simulated measurement of the replica binary:
// the code every mesh peer must prove it is running before a link comes
// up.
const meshCodeIdentity = "securekeeper-replica-mesh"

// meshSecureConfig derives the SecureKeeper mesh's attestation material.
// The deployment attestation root is seeded from the administrator's
// storage key — the secret §4.5 already distributes to exactly the
// attested enclaves — via a domain-separated hash, so the key itself
// never signs anything. The channel identity is fresh per boot: session
// keys come from the per-connection X25519 exchange, never from the
// storage key.
func meshSecureConfig(storageKey []byte) (*zabnet.SecureConfig, error) {
	seed := storageKey
	if seed == nil {
		// Single-replica ensemble with a generated storage key: the mesh
		// has no peers to attest, but the config must still be complete.
		var buf [32]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("core: mesh attestation seed: %w", err)
		}
		seed = buf[:]
	}
	h := sha256.Sum256(append([]byte("securekeeper-mesh-attest-v1:"), seed...))
	id, err := transport.NewIdentity()
	if err != nil {
		return nil, err
	}
	return &zabnet.SecureConfig{
		Signer:   sgx.NewSeededQuoteSigner(h[:], meshCodeIdentity),
		Identity: id,
	}, nil
}

// Variant returns the node's configuration variant.
func (n *Node) Variant() Variant { return n.cfg.Variant }

// ID returns the node's ensemble identity.
func (n *Node) ID() zab.PeerID { return n.cfg.ID }

// Replica exposes the underlying replica (tests and observability).
func (n *Node) Replica() *server.Replica { return n.replica }

// Mesh exposes the peer transport (tests and fault injection); nil for
// a Cluster member.
func (n *Node) Mesh() *zabnet.Mesh { return n.mesh }

// Obs returns the node's metrics registry (the scrape target).
func (n *Node) Obs() *obs.Registry { return n.obs }

// IsLeader reports whether this node currently leads the ensemble.
func (n *Node) IsLeader() bool { return n.replica.IsLeader() }

// Role returns the node's protocol role.
func (n *Node) Role() zab.Role { return n.replica.Peer().Role() }

// Leader returns the known leader id, or -1.
func (n *Node) Leader() zab.PeerID { return n.replica.Peer().Leader() }

// WaitForRole blocks until the node settles into an ensemble role.
func (n *Node) WaitForRole(timeout time.Duration) error {
	return n.replica.WaitForRole(timeout)
}

// ReplicaPublicKey returns the channel identity clients pin (§4.1).
func (n *Node) ReplicaPublicKey() []byte {
	return append([]byte(nil), n.identity.Public...)
}

// stopped reports whether Close has been called.
func (n *Node) stopped() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.closed
}

// ServeExternal serves an externally accepted (e.g. TCP) connection
// with the variant's full stack: plaintext for Vanilla, secure channel
// for TLS, secure channel terminated at a fresh entry enclave for
// SecureKeeper. Blocks until the session ends.
func (n *Node) ServeExternal(conn transport.Conn) error {
	if n.stopped() {
		return ErrReplicaStopped
	}
	var icept server.Interceptor = server.NopInterceptor{}
	if n.cfg.Variant == SecureKeeper {
		entry, err := n.entryEnclave()
		if err != nil {
			return err
		}
		defer entry.Close()
		icept = &entryInterceptor{entry: entry, batches: &n.ecallBatches}
	}
	if n.cfg.Variant != Vanilla {
		// Clients are anonymous to the replica (server-authenticated
		// TLS, §4.1): the client pins this node's key, not the reverse.
		sc, err := transport.Handshake(conn, n.identity, false, nil)
		if err != nil {
			return err
		}
		conn = sc
	}
	return n.replica.ServeConn(conn, icept)
}

// entryEnclave instantiates and provisions a per-client entry enclave:
// the first one on a node is remote-attested by the key server;
// subsequent ones unseal the key blob the first left behind (§4.5).
func (n *Node) entryEnclave() (*enclave.Entry, error) {
	entry, err := enclave.NewEntry(n.runtime)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	provisioned := n.entryProvisioned
	n.mu.Unlock()
	if provisioned {
		if err := enclave.UnsealEntry(entry, n.sealed); err == nil {
			return entry, nil
		}
		// Sealed blob missing or damaged: fall back to attestation.
	}
	if err := enclave.ProvisionEntry(entry, n.keyServer, n.sealed); err != nil {
		entry.Close()
		return nil, err
	}
	n.mu.Lock()
	n.entryProvisioned = true
	n.mu.Unlock()
	return entry, nil
}

// Connect opens an in-process client session over a pipe, wiring the
// variant's stack on both ends; non-Vanilla clients pin the node's
// public key (received out of band, §4.1).
func (n *Node) Connect(opts client.Options) (*client.Client, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrReplicaStopped
	}
	// Added under mu, so Close's Wait never races a new serve goroutine.
	n.wg.Add(1)
	n.mu.Unlock()
	clientEnd, serverEnd := transport.NewChanPipe()
	go func() {
		defer n.wg.Done()
		if err := n.ServeExternal(serverEnd); err != nil {
			// An error before the session loop (enclave provisioning,
			// handshake) leaves the pipe open with nobody reading;
			// close it or the client side blocks in Handshake forever.
			_ = serverEnd.Close()
		}
	}()
	// Mirror image of the server-side close above: a client-side
	// failure must close the pipe too, or the serve goroutine blocks
	// on it forever and Close deadlocks in wg.Wait.
	cl, err := n.connectClient(clientEnd, opts)
	if err != nil {
		_ = clientEnd.Close()
		return nil, err
	}
	return cl, nil
}

func (n *Node) connectClient(conn transport.Conn, opts client.Options) (*client.Client, error) {
	if n.cfg.Variant != Vanilla {
		sc, err := transport.Handshake(conn, nil, true, transport.VerifyExact(n.identity.Public))
		if err != nil {
			return nil, err
		}
		conn = sc
	}
	return client.NewSession(conn, opts)
}

// Close stops the replica, tears the mesh down, waits for in-process
// sessions and releases the counter enclave.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()

	n.replica.Close()
	if n.mesh != nil {
		_ = n.mesh.Close()
	}
	n.wg.Wait()
	if n.counter != nil {
		n.counter.Close()
	}
}

// ecallBatchMetrics holds the messages-per-crossing histograms of the
// two entry-enclave ecalls; nil histograms (no registry) are no-ops.
type ecallBatchMetrics struct {
	request, response *obs.Histogram
}

// registerEcallMetrics hooks the SGX runtime's ecall observer into the
// host registry: one crossing counter and one latency histogram per
// ecall kind (entry request/response, counter sequence). The observer
// fires on every enclave crossing, so the lookup is a prebuilt map hit
// — no registry scan on the hot path. It returns the entry ecalls'
// messages-per-crossing histograms, which the interceptors fill.
func registerEcallMetrics(reg *obs.Registry, rt *sgx.Runtime) ecallBatchMetrics {
	if reg == nil {
		return ecallBatchMetrics{}
	}
	batchHist := func(op string) *obs.Histogram {
		return reg.CountHistogram("enclave_ecall_messages", fmt.Sprintf("op=%q", op),
			"Messages carried per entry-enclave crossing.")
	}
	type pair struct {
		count *obs.Counter
		lat   *obs.Histogram
	}
	instrument := func(op string) pair {
		labels := fmt.Sprintf("op=%q", op)
		return pair{
			count: reg.Counter("enclave_ecalls_total", labels,
				"Enclave crossings by ecall kind."),
			lat: reg.Histogram("enclave_ecall_seconds", labels,
				"Full ecall crossing latency, simulated SGX transition costs included."),
		}
	}
	byName := map[string]pair{
		enclave.EcallRequest:  instrument(enclave.EcallRequest),
		enclave.EcallResponse: instrument(enclave.EcallResponse),
		enclave.EcallSequence: instrument(enclave.EcallSequence),
	}
	other := instrument("other")
	rt.SetEcallObserver(func(name string, durNs int64) {
		p, ok := byName[name]
		if !ok {
			p = other
		}
		p.count.Inc()
		p.lat.Observe(durNs)
	})
	return ecallBatchMetrics{
		request:  batchHist(enclave.EcallRequest),
		response: batchHist(enclave.EcallResponse),
	}
}

// entryInterceptor adapts the entry enclave to the server's
// interception points: each call is one enclave crossing.
type entryInterceptor struct {
	entry   *enclave.Entry
	batches *ecallBatchMetrics
}

var _ server.Interceptor = (*entryInterceptor)(nil)

// OnRequests implements server.Interceptor.
func (ei *entryInterceptor) OnRequests(msgs [][]byte) ([][]byte, error) {
	ei.batches.request.Observe(int64(len(msgs)))
	return ei.entry.ProcessRequests(msgs)
}

// OnResponses implements server.Interceptor.
func (ei *entryInterceptor) OnResponses(msgs [][]byte) ([][]byte, error) {
	ei.batches.response.Observe(int64(len(msgs)))
	return ei.entry.ProcessResponses(msgs)
}
