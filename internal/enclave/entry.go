// Package enclave implements SecureKeeper's two trusted components
// (§4): the per-client entry enclave, which terminates the client's
// secure channel and translates between plaintext client messages and
// storage-encrypted replica messages, and the counter enclave on the
// leader, which performs the one piece of genuine data processing —
// merging the plaintext sequence number into the encrypted path name of
// sequential nodes.
//
// Both run as trusted code inside the simulated SGX runtime: their
// message transformations execute via ecalls with the copy-in/copy-out
// buffer contract of the paper's EDL interface (Listing 1), and the
// storage key reaches them only through remote attestation followed by
// sealing (§4.5), implemented in provision.go.
package enclave

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// Enclave code identities. The measurement of an enclave derives from
// its code identity; the key server releases the storage key only to
// these measurements.
const (
	EntryCodeIdentity   = "securekeeper/entry-enclave/v1"
	CounterCodeIdentity = "securekeeper/counter-enclave/v1"
)

// Enclave sizing (§6.5): the entry enclave's shared object is 436 KB
// and its total footprint ~580 KB; the counter enclave is 325 KB / 397 KB.
const (
	entryCodeBytes   = 436 << 10
	entryHeapBytes   = 96 << 10
	counterCodeBytes = 325 << 10
	counterHeapBytes = 24 << 10
)

// Ecall names, mirroring Listing 1.
const (
	EcallRequest  = "ec_request"
	EcallResponse = "ec_response"
	EcallSequence = "ec_sequence"
)

// Processing errors.
var (
	ErrNoPending         = errors.New("enclave: response without pending request")
	ErrKeyNotProvisioned = errors.New("enclave: storage key not provisioned")
	ErrMalformedBatch    = errors.New("enclave: malformed batch header")
)

// MaxBatch bounds the messages one ec_request or ec_response crossing
// carries.
const MaxBatch = 64

// pendingOp records one in-flight request in the entry enclave's FIFO
// queue (§4.2): responses carry no operation type, but the per-client
// FIFO ordering guarantees responses arrive in request order, so a
// queue of (xid, op, plaintext path) suffices to interpret them.
//
// The server's commit-processor split executes reads concurrently with
// pending writes, but it deliberately preserves this enclave's two
// serialization points: OnRequests (ec_request) is always called from
// the session reader goroutine in submission order, and OnResponses
// (ec_response) from the session writer goroutine in release order,
// which equals submission order; within a batch, messages are
// transformed in slice order. Execution order is decoupled; queue
// order is not. TestEnclaveResponseMatchingUnderPipelinedMixedOps and
// TestResponseXidOrder pin this contract.
type pendingOp struct {
	xid        int32
	op         wire.OpCode
	plainPath  string
	sequential bool
	// subs records a multi's sub-op codes, in order: the response
	// transformation trusts ONLY this enclave-recorded sequence (never
	// the replica's claimed result ops) to decide which results carry a
	// path to decrypt or a ciphertext length to adjust.
	subs []wire.OpCode
}

// Entry is the per-client entry enclave. Its exported methods are the
// untrusted wrapper; the trusted logic runs inside ecalls.
type Entry struct {
	enclave *sgx.Enclave
	runtime *sgx.Runtime

	// Trusted state (lives inside the ELRANGE conceptually): the
	// storage codec and the FIFO request-type queue.
	mu    sync.Mutex
	codec *skcrypto.Codec
	queue []pendingOp
}

// NewEntry instantiates an entry enclave on the runtime. The storage
// key must be provisioned afterwards (Provision or UnsealFrom) before
// messages can be processed.
func NewEntry(rt *sgx.Runtime) (*Entry, error) {
	en := &Entry{runtime: rt}
	spec := sgx.Spec{
		CodeIdentity: EntryCodeIdentity,
		CodeBytes:    entryCodeBytes,
		HeapBytes:    entryHeapBytes,
		Threads:      1,
		Ecalls: map[string]sgx.EcallFunc{
			EcallRequest: func(buf []byte, msgLen int) (int, error) {
				return ecBatch(en.ecRequest, buf, msgLen)
			},
			EcallResponse: func(buf []byte, msgLen int) (int, error) {
				return ecBatch(en.ecResponse, buf, msgLen)
			},
		},
	}
	e, err := rt.Create(spec)
	if err != nil {
		return nil, fmt.Errorf("enclave: create entry: %w", err)
	}
	en.enclave = e
	return en, nil
}

// Enclave returns the underlying SGX enclave (for attestation and
// accounting).
func (en *Entry) Enclave() *sgx.Enclave { return en.enclave }

// Close destroys the enclave.
func (en *Entry) Close() { en.runtime.Destroy(en.enclave) }

// installKey sets the storage codec; called by the provisioning flow.
func (en *Entry) installKey(key []byte) error {
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		return err
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	en.codec = codec
	return nil
}

// Provisioned reports whether the storage key has been installed.
func (en *Entry) Provisioned() bool {
	en.mu.Lock()
	defer en.mu.Unlock()
	return en.codec != nil
}

// GrowthHeadroom returns the extra buffer capacity the untrusted caller
// must pre-allocate before an ecall so the enclave can grow the message
// in place (§5.1): room for per-chunk path expansion, the payload
// binding hash and tag, and Base64 inflation.
func GrowthHeadroom(msgLen int) int {
	return msgLen/2 + 512
}

// ProcessRequest runs one client request (transport-plaintext bytes)
// through the entry enclave: a batch of one.
func (en *Entry) ProcessRequest(msg []byte) ([]byte, error) {
	return processOne(en.ProcessRequests, msg)
}

// ProcessResponse runs one replica response through the entry enclave:
// a batch of one.
func (en *Entry) ProcessResponse(msg []byte) ([]byte, error) {
	return processOne(en.ProcessResponses, msg)
}

func processOne(batch func([][]byte) ([][]byte, error), msg []byte) ([]byte, error) {
	one := [1][]byte{msg}
	out, err := batch(one[:])
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// ProcessRequests runs a run of client requests through the entry
// enclave in one ec_request crossing, returning the storage-encrypted
// messages to inject into the replica pipeline. The results replace
// msgs' elements in place. If a message fails, the crossing stops
// there: the returned prefix holds the messages transformed before it,
// and the error is the failing message's.
func (en *Entry) ProcessRequests(msgs [][]byte) ([][]byte, error) {
	return en.callBatch(EcallRequest, msgs)
}

// ProcessResponses runs a run of replica responses through the entry
// enclave in one ec_response crossing, returning the client-plaintext
// messages (still to be transport-encrypted by the secure channel).
// Results and failures follow ProcessRequests.
func (en *Entry) ProcessResponses(msgs [][]byte) ([][]byte, error) {
	return en.callBatch(EcallResponse, msgs)
}

// The batch buffer of one crossing (§5.1's pre-sized buffer, per
// message). Little-endian u32 fields:
//
//	in:  count | count × (len, cap) | count regions of cap bytes each,
//	     the first len bytes of region i holding message i
//	out: ok    | count × len        | the ok outputs, back to back
//
// Each region carries its own headroom (msgCap), so the trusted side
// grows every message in place exactly as for a single message. The
// outputs are compacted behind the output header, so the copy-out
// carries only produced bytes.
func batchInHeader(n int) int  { return 4 + 8*n }
func batchOutHeader(n int) int { return 4 + 4*n }

// msgCap is the region capacity of a message of length l: l plus its
// GrowthHeadroom, rounded up to the pooled buffer size class. That is
// the room a crossing of this message alone gets from sgx.GetBuf, and
// growth beyond GrowthHeadroom (a path of many one-character elements
// grows by ~38 B per element) may rely on the class slack.
func msgCap(l int) int { return sgx.BufCap(l + GrowthHeadroom(l)) }

// batchLayout returns the buffer size a batch of msgs needs and how
// many of its leading bytes are copied in (up to the last message's
// end; the last region's headroom is not).
func batchLayout(msgs [][]byte) (size, msgLen int) {
	size = batchInHeader(len(msgs))
	for _, m := range msgs {
		msgLen = size + len(m)
		size += msgCap(len(m))
	}
	return size, msgLen
}

// packBatch writes the input header and messages into buf, sized by
// batchLayout.
func packBatch(buf []byte, msgs [][]byte) {
	binary.LittleEndian.PutUint32(buf, uint32(len(msgs)))
	off := batchInHeader(len(msgs))
	for i, m := range msgs {
		c := msgCap(len(m))
		binary.LittleEndian.PutUint32(buf[4+8*i:], uint32(len(m)))
		binary.LittleEndian.PutUint32(buf[8+8*i:], uint32(c))
		copy(buf[off:], m)
		off += c
	}
}

// callBatch packs msgs into one pooled batch buffer, crosses once, and
// copies the outputs into one exactly-sized slab: the server pipeline
// retains request outputs in its FIFO queue, so they must not alias
// the pooled buffer. Each output is capacity-capped so an append by the
// caller can never bleed into its neighbour.
func (en *Entry) callBatch(name string, msgs [][]byte) ([][]byte, error) {
	n := len(msgs)
	if n == 0 {
		return msgs, nil
	}
	if n > MaxBatch {
		return msgs[:0], fmt.Errorf("%w: %d messages, at most %d", ErrMalformedBatch, n, MaxBatch)
	}
	size, msgLen := batchLayout(msgs)
	pb := sgx.GetBuf(size)
	buf := pb.B[:size]
	packBatch(buf, msgs)
	produced, err := en.enclave.Ecall(name, buf, msgLen)
	if produced < batchOutHeader(n) {
		pb.Release()
		return msgs[:0], err
	}
	ok := int(binary.LittleEndian.Uint32(buf))
	if ok > n {
		pb.Release()
		return msgs[:0], fmt.Errorf("%w: %d outputs for %d messages", ErrMalformedBatch, ok, n)
	}
	out := buf[batchOutHeader(n):produced]
	slab := make([]byte, len(out))
	copy(slab, out)
	pos := 0
	for i := 0; i < ok; i++ {
		l := int(binary.LittleEndian.Uint32(buf[4+4*i:]))
		if pos+l > len(slab) {
			pb.Release()
			return msgs[:0], fmt.Errorf("%w: output lengths exceed the copy-out", ErrMalformedBatch)
		}
		msgs[i] = slab[pos : pos+l : pos+l]
		pos += l
	}
	pb.Release()
	return msgs[:ok], err
}

// --- trusted code (runs inside the enclave) ---

// ecBatch is the trusted side of a batched crossing: it validates the
// untrusted header (count, lengths and capacities must all lie inside
// the copied-in buffer), runs fn over each message in order inside its
// own region, and compacts the outputs behind the output header. It
// stops at the first message fn rejects and reports the produced
// prefix together with that error; nothing past the outputs — such as
// a half-rewritten failing message — is part of the copy-out.
func ecBatch(fn sgx.EcallFunc, buf []byte, msgLen int) (int, error) {
	if msgLen < 4 || msgLen > len(buf) {
		return 0, ErrMalformedBatch
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 1 || n > MaxBatch || batchInHeader(n) > msgLen {
		return 0, ErrMalformedBatch
	}
	// Parse the whole header first: the compacted outputs overwrite it.
	var lens, caps [MaxBatch]int
	off := batchInHeader(n)
	for i := 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint32(buf[4+8*i:]))
		c := int(binary.LittleEndian.Uint32(buf[8+8*i:]))
		if l > c || c > len(buf)-off || l > msgLen-off {
			return 0, ErrMalformedBatch
		}
		lens[i], caps[i] = l, c
		off += c
	}
	off = batchInHeader(n)
	pos := batchOutHeader(n)
	ok := 0
	var ferr error
	for ; ok < n; ok++ {
		region := buf[off : off+caps[ok] : off+caps[ok]]
		out, err := fn(region, lens[ok])
		if err != nil {
			ferr = err
			break
		}
		if out > len(region) {
			ferr = sgx.ErrBufferOverflow
			break
		}
		// pos <= off always: the output header is smaller than the
		// input header and every output fits its region, so the move
		// never overtakes a region not yet processed.
		copy(buf[pos:], region[:out])
		lens[ok] = out
		pos += out
		off += caps[ok]
	}
	binary.LittleEndian.PutUint32(buf, uint32(ok))
	for i := 0; i < n; i++ {
		l := 0
		if i < ok {
			l = lens[i]
		}
		binary.LittleEndian.PutUint32(buf[4+4*i:], uint32(l))
	}
	return pos, ferr
}

// --- trusted code (runs inside the enclave) ---

// ecRequest is the trusted request-path transformation of one message
// of an ec_request batch: deserialize the
// plaintext request, encrypt the sensitive fields (path and payload)
// towards the ZooKeeper data store, remember (xid, op) in the FIFO
// queue, and serialize the rewritten message.
//
// The decode is zero-copy (byte fields alias buf) and the decoded
// request record is reused as the rewritten body: every field is either
// forwarded or overwritten with its encrypted form, and the final
// serialization drains all aliases before buf is overwritten.
func (en *Entry) ecRequest(buf []byte, msgLen int) (int, error) {
	en.mu.Lock()
	codec := en.codec
	en.mu.Unlock()
	if codec == nil {
		return 0, ErrKeyNotProvisioned
	}

	var hdr wire.RequestHeader
	var d wire.Decoder
	d.Reset(buf[:msgLen])
	d.SetZeroCopy(true)
	if err := hdr.Deserialize(&d); err != nil {
		return 0, fmt.Errorf("enclave: request header: %w", err)
	}

	pend := pendingOp{xid: hdr.Xid, op: hdr.Op}
	var body wire.Record

	switch hdr.Op {
	case wire.OpCreate:
		req := &wire.CreateRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: create body: %w", err)
		}
		sequential := req.Flags&wire.FlagSequential != 0
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		encData, err := codec.EncryptPayload(req.Path, req.Data, sequential)
		if err != nil {
			return 0, err
		}
		pend.plainPath, pend.sequential = req.Path, sequential
		req.Path, req.Data = encPath, encData
		body = req

	case wire.OpSetData:
		req := &wire.SetDataRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: set body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		// A SET rebinds the payload to the full plaintext path the
		// client addressed (including any sequence suffix).
		encData, err := codec.EncryptPayload(req.Path, req.Data, false)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path, req.Data = encPath, encData
		body = req

	case wire.OpGetData:
		req := &wire.GetDataRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: get body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path = encPath
		body = req

	case wire.OpDelete:
		req := &wire.DeleteRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: delete body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path = encPath
		body = req

	case wire.OpExists:
		req := &wire.ExistsRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: exists body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path = encPath
		body = req

	case wire.OpGetChildren:
		req := &wire.GetChildrenRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: ls body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path = encPath
		body = req

	case wire.OpSync:
		req := &wire.SyncRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: sync body: %w", err)
		}
		encPath, err := codec.EncryptPath(req.Path)
		if err != nil {
			return 0, err
		}
		pend.plainPath = req.Path
		req.Path = encPath
		body = req

	case wire.OpMulti:
		req := &wire.MultiRequest{}
		if err := req.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: multi body: %w", err)
		}
		// Every sub-op is rewritten exactly as its standalone
		// counterpart: path encryption always, payload encryption (bound
		// to the plaintext path) for create and set. The whole rewritten
		// transaction leaves the enclave in one message, so the replica
		// proposes ciphertext only.
		pend.subs = make([]wire.OpCode, len(req.Ops))
		for i := range req.Ops {
			sop := &req.Ops[i]
			sequential := sop.Op == wire.OpCreate && sop.Flags&wire.FlagSequential != 0
			encPath, err := codec.EncryptPath(sop.Path)
			if err != nil {
				return 0, err
			}
			pend.subs[i] = sop.Op
			if sop.Op == wire.OpCreate || sop.Op == wire.OpSetData {
				encData, err := codec.EncryptPayload(sop.Path, sop.Data, sequential)
				if err != nil {
					return 0, err
				}
				sop.Data = encData
			}
			sop.Path = encPath
		}
		body = req

	case wire.OpPing, wire.OpCloseSession, wire.OpServerStats, wire.OpReconfig:
		// No sensitive fields (membership ids and mesh addresses are
		// deployment topology, not client data); forward verbatim. Close,
		// stats and reconfig use regular xids, so their replies pop
		// ecResponse's FIFO and must be queued here; pings use the
		// reserved xid and skip it.
		if hdr.Op != wire.OpPing {
			en.mu.Lock()
			en.queue = append(en.queue, pend)
			en.mu.Unlock()
		}
		return msgLen, nil

	default:
		return 0, fmt.Errorf("enclave: unsupported op %s: %w", hdr.Op, wire.ErrUnimplemented.Error())
	}

	en.mu.Lock()
	en.queue = append(en.queue, pend)
	en.mu.Unlock()

	n, ok := wire.MarshalPairInto(buf, &hdr, body)
	if !ok {
		return 0, sgx.ErrBufferOverflow
	}
	return n, nil
}

// ecResponse is the trusted response-path transformation of one message
// of an ec_response batch: deserialize the replica's reply, decrypt sensitive fields, verify payload↔path
// binding, and serialize the plaintext message for the client.
func (en *Entry) ecResponse(buf []byte, msgLen int) (int, error) {
	en.mu.Lock()
	codec := en.codec
	en.mu.Unlock()
	if codec == nil {
		return 0, ErrKeyNotProvisioned
	}

	var hdr wire.ReplyHeader
	var d wire.Decoder
	d.Reset(buf[:msgLen])
	d.SetZeroCopy(true)
	if err := hdr.Deserialize(&d); err != nil {
		return 0, fmt.Errorf("enclave: reply header: %w", err)
	}

	// Watch notifications bypass the FIFO queue: they carry the
	// reserved xid and an encrypted path that must be decrypted.
	if hdr.Xid == wire.WatcherEventXid {
		var ev wire.WatcherEvent
		if err := ev.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: watch event: %w", err)
		}
		plain, err := codec.DecryptPath(ev.Path)
		if err != nil {
			return 0, err
		}
		ev.Path = plain
		n, ok := wire.MarshalPairInto(buf, &hdr, &ev)
		if !ok {
			return 0, sgx.ErrBufferOverflow
		}
		return n, nil
	}
	if hdr.Xid == wire.PingXid {
		return msgLen, nil
	}

	en.mu.Lock()
	if len(en.queue) == 0 {
		en.mu.Unlock()
		return 0, ErrNoPending
	}
	pend := en.queue[0]
	en.queue = en.queue[1:]
	en.mu.Unlock()

	if pend.xid != hdr.Xid {
		return 0, fmt.Errorf("enclave: FIFO violation: response xid %d, expected %d: %w",
			hdr.Xid, pend.xid, wire.ErrRuntimeInconsistency.Error())
	}
	if hdr.Err != wire.ErrOK {
		return msgLen, nil // error replies carry no body
	}

	var body wire.Record
	switch pend.op {
	case wire.OpGetData:
		resp := &wire.GetDataResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: get response: %w", err)
		}
		// resp.Data zero-copy aliases buf, which is this ecall's private
		// scratch: decrypt it in place, no intermediate ciphertext copy.
		plain, err := codec.DecryptPayloadInPlace(pend.plainPath, resp.Data)
		if err != nil {
			// Binding or HMAC failure: report integrity violation to
			// the client instead of tampered data (§7.1).
			return en.integrityReply(buf, hdr)
		}
		resp.Data = plain
		// Surface the plaintext length, not the ciphertext length the
		// untrusted store tracks (§5.2).
		resp.Stat.DataLength = int32(len(plain))
		body = resp

	case wire.OpCreate:
		resp := &wire.CreateResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: create response: %w", err)
		}
		plain, err := codec.DecryptPath(resp.Path)
		if err != nil {
			return en.integrityReply(buf, hdr)
		}
		resp.Path = plain
		body = resp

	case wire.OpGetChildren:
		resp := &wire.GetChildrenResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: ls response: %w", err)
		}
		for i, child := range resp.Children {
			plain, err := codec.DecryptChunk(child)
			if err != nil {
				return en.integrityReply(buf, hdr)
			}
			resp.Children[i] = plain
		}
		body = resp

	case wire.OpSetData:
		resp := &wire.SetDataResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: set response: %w", err)
		}
		resp.Stat.DataLength -= int32(skcrypto.PayloadOverhead)
		body = resp

	case wire.OpExists:
		resp := &wire.ExistsResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: exists response: %w", err)
		}
		if resp.Stat.DataLength >= int32(skcrypto.PayloadOverhead) {
			resp.Stat.DataLength -= int32(skcrypto.PayloadOverhead)
		}
		body = resp

	case wire.OpSync:
		resp := &wire.SyncResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: sync response: %w", err)
		}
		plain, err := codec.DecryptPath(resp.Path)
		if err != nil {
			return en.integrityReply(buf, hdr)
		}
		resp.Path = plain
		body = resp

	case wire.OpMulti:
		resp := &wire.MultiResponse{}
		if err := resp.Deserialize(&d); err != nil {
			return 0, fmt.Errorf("enclave: multi response: %w", err)
		}
		// The enclave-recorded sub-op queue is the ONLY trusted source
		// of each result's interpretation: a tampering replica that
		// relabels a result's op code (or reshapes the result array)
		// must not steer a created path or a ciphertext length past the
		// decryption/adjustment below.
		if len(resp.Results) != len(pend.subs) {
			return en.integrityReply(buf, hdr)
		}
		for i := range resp.Results {
			mr := &resp.Results[i]
			subOp := pend.subs[i]
			if mr.Op != subOp {
				return en.integrityReply(buf, hdr)
			}
			if mr.Err != wire.ErrOK {
				continue
			}
			switch subOp {
			case wire.OpCreate:
				plain, err := codec.DecryptPath(mr.Path)
				if err != nil {
					return en.integrityReply(buf, hdr)
				}
				mr.Path = plain
				if mr.Stat.DataLength >= int32(skcrypto.PayloadOverhead) {
					mr.Stat.DataLength -= int32(skcrypto.PayloadOverhead)
				}
			case wire.OpSetData, wire.OpCheck:
				// The untrusted store tracks ciphertext lengths (§5.2).
				if mr.Stat.DataLength >= int32(skcrypto.PayloadOverhead) {
					mr.Stat.DataLength -= int32(skcrypto.PayloadOverhead)
				}
			}
		}
		body = resp

	default:
		// DELETE and CLOSE responses carry no body; STAT's body has no
		// encrypted fields. All forward verbatim.
		return msgLen, nil
	}

	n, ok := wire.MarshalPairInto(buf, &hdr, body)
	if !ok {
		return 0, sgx.ErrBufferOverflow
	}
	return n, nil
}

// integrityReply rewrites the response into an integrity-violation
// error so the client learns the store was tampered with, without ever
// seeing the tampered data.
func (en *Entry) integrityReply(buf []byte, hdr wire.ReplyHeader) (int, error) {
	hdr.Err = wire.ErrIntegrity
	n, ok := wire.MarshalPairInto(buf, &hdr, nil)
	if !ok {
		return 0, sgx.ErrBufferOverflow
	}
	return n, nil
}

// PendingDepth reports the FIFO queue length (observability; §6.5 notes
// it holds up to the async window of in-flight requests).
func (en *Entry) PendingDepth() int {
	en.mu.Lock()
	defer en.mu.Unlock()
	return len(en.queue)
}
