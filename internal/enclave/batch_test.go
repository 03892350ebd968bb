package enclave

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

func replyHeader(t *testing.T, msg []byte, body wire.Record) wire.ReplyHeader {
	t.Helper()
	d := wire.NewDecoder(msg)
	var hdr wire.ReplyHeader
	if err := hdr.Deserialize(d); err != nil {
		t.Fatal(err)
	}
	if body != nil {
		if err := body.Deserialize(d); err != nil {
			t.Fatal(err)
		}
	}
	return hdr
}

// TestEntryBatchRoundTripsEveryOpKind sends one request of each kind
// through a single ec_request crossing and their replies through a
// single ec_response crossing: every message is transformed as it
// would be alone, and replies match requests in FIFO xid order.
func TestEntryBatchRoundTripsEveryOpKind(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	reqs := [][]byte{
		request(t, 1, wire.OpCreate, &wire.CreateRequest{Path: "/b/new", Data: []byte("c")}),
		request(t, 2, wire.OpSetData, &wire.SetDataRequest{Path: "/b/old", Data: []byte("s"), Version: -1}),
		request(t, 3, wire.OpGetData, &wire.GetDataRequest{Path: "/b/old"}),
		request(t, 4, wire.OpMulti, &wire.MultiRequest{Ops: []wire.MultiOp{
			{Op: wire.OpCreate, Path: "/b/m", Data: []byte("m")},
		}}),
		request(t, wire.PingXid, wire.OpPing, nil),
		request(t, 5, wire.OpCloseSession, nil),
	}
	ping := append([]byte(nil), reqs[4]...)
	before := entry.Enclave().EcallCount()
	out, err := entry.ProcessRequests(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if got := entry.Enclave().EcallCount() - before; got != 1 {
		t.Fatalf("request batch took %d crossings, want 1", got)
	}
	if len(out) != 6 {
		t.Fatalf("got %d outputs, want 6", len(out))
	}
	var create wire.CreateRequest
	if hdr := parseRequest(t, out[0], &create); hdr.Xid != 1 || hdr.Op != wire.OpCreate {
		t.Fatalf("create header = %+v", hdr)
	}
	if p, err := codec.DecryptPath(create.Path); err != nil || p != "/b/new" {
		t.Fatalf("create path = %q, %v", p, err)
	}
	var set wire.SetDataRequest
	parseRequest(t, out[1], &set)
	if data, err := codec.DecryptPayload("/b/old", set.Data); err != nil || string(data) != "s" {
		t.Fatalf("set payload = %q, %v", data, err)
	}
	var get wire.GetDataRequest
	if hdr := parseRequest(t, out[2], &get); hdr.Xid != 3 || get.Path == "/b/old" {
		t.Fatalf("get left the enclave in plaintext: %+v %q", hdr, get.Path)
	}
	var multi wire.MultiRequest
	parseRequest(t, out[3], &multi)
	if p, err := codec.DecryptPath(multi.Ops[0].Path); err != nil || p != "/b/m" {
		t.Fatalf("multi sub-op path = %q, %v", p, err)
	}
	if !bytes.Equal(out[4], ping) {
		t.Fatal("ping must pass through verbatim")
	}
	if hdr := parseRequest(t, out[5], nil); hdr.Xid != 5 || hdr.Op != wire.OpCloseSession {
		t.Fatalf("close header = %+v", hdr)
	}
	if d := entry.PendingDepth(); d != 5 {
		t.Fatalf("pending depth = %d, want 5 (ping skips the queue)", d)
	}

	encNew, _ := codec.EncryptPath("/b/new")
	encM, _ := codec.EncryptPath("/b/m")
	stored, _ := codec.EncryptPayload("/b/old", []byte("plain"), false)
	ctLen := int32(skcrypto.EncryptedPayloadLen(1))
	resps := [][]byte{
		wire.MarshalPair(&wire.ReplyHeader{Xid: 1, Err: wire.ErrOK}, &wire.CreateResponse{Path: encNew}),
		wire.MarshalPair(&wire.ReplyHeader{Xid: 2, Err: wire.ErrOK}, &wire.SetDataResponse{Stat: wire.Stat{DataLength: ctLen}}),
		wire.MarshalPair(&wire.ReplyHeader{Xid: wire.PingXid, Err: wire.ErrOK}, nil),
		wire.MarshalPair(&wire.ReplyHeader{Xid: 3, Err: wire.ErrOK},
			&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}}),
		wire.MarshalPair(&wire.ReplyHeader{Xid: 4, Err: wire.ErrOK}, &wire.MultiResponse{Results: []wire.MultiOpResult{
			{Op: wire.OpCreate, Path: encM, Stat: wire.Stat{DataLength: ctLen}},
		}}),
		wire.MarshalPair(&wire.ReplyHeader{Xid: 5, Err: wire.ErrOK}, nil),
	}
	before = entry.Enclave().EcallCount()
	out, err = entry.ProcessResponses(resps)
	if err != nil {
		t.Fatal(err)
	}
	if got := entry.Enclave().EcallCount() - before; got != 1 {
		t.Fatalf("response batch took %d crossings, want 1", got)
	}
	var created wire.CreateResponse
	if replyHeader(t, out[0], &created); created.Path != "/b/new" {
		t.Fatalf("created path = %q", created.Path)
	}
	var setResp wire.SetDataResponse
	if replyHeader(t, out[1], &setResp); setResp.Stat.DataLength != 1 {
		t.Fatalf("set DataLength = %d, want plaintext 1", setResp.Stat.DataLength)
	}
	if hdr := replyHeader(t, out[2], nil); hdr.Xid != wire.PingXid {
		t.Fatalf("ping reply xid = %d", hdr.Xid)
	}
	var getResp wire.GetDataResponse
	if replyHeader(t, out[3], &getResp); string(getResp.Data) != "plain" {
		t.Fatalf("get payload = %q", getResp.Data)
	}
	var multiResp wire.MultiResponse
	if replyHeader(t, out[4], &multiResp); multiResp.Results[0].Path != "/b/m" {
		t.Fatalf("multi created path = %q", multiResp.Results[0].Path)
	}
	if hdr := replyHeader(t, out[5], nil); hdr.Xid != 5 || hdr.Err != wire.ErrOK {
		t.Fatalf("close reply = %+v", hdr)
	}
	if d := entry.PendingDepth(); d != 0 {
		t.Fatalf("pending depth = %d after the replies", d)
	}
}

// TestEntryBatchStopsAtFirstFailure: the crossing reports the messages
// transformed before the failing one, plus its error; nothing after it
// is touched.
func TestEntryBatchStopsAtFirstFailure(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	reqs := [][]byte{
		request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"}),
		request(t, 2, wire.OpCode(999), nil),
		request(t, 3, wire.OpGetData, &wire.GetDataRequest{Path: "/c"}),
	}
	out, err := entry.ProcessRequests(reqs)
	if err == nil {
		t.Fatal("unsupported op must fail the batch")
	}
	if len(out) != 1 || entry.PendingDepth() != 1 {
		t.Fatalf("prefix = %d messages, pending %d; want 1 and 1", len(out), entry.PendingDepth())
	}
	parseRequest(t, out[0], &wire.GetDataRequest{})

	resps := [][]byte{
		wire.MarshalPair(&wire.ReplyHeader{Xid: 1, Err: wire.ErrNoNode}, nil),
		wire.MarshalPair(&wire.ReplyHeader{Xid: 7, Err: wire.ErrOK}, &wire.GetDataResponse{}),
	}
	out, err = entry.ProcessResponses(resps)
	if !errors.Is(err, ErrNoPending) {
		t.Fatalf("err = %v, want ErrNoPending", err)
	}
	if len(out) != 1 {
		t.Fatalf("prefix = %d messages, want 1", len(out))
	}
	if hdr := replyHeader(t, out[0], nil); hdr.Xid != 1 || hdr.Err != wire.ErrNoNode {
		t.Fatalf("prefix reply = %+v", hdr)
	}
}

// TestEntryBatchRoomForShortElementGrowth sends requests that grow by
// more than GrowthHeadroom but fit the pooled size class of a lone
// crossing: a GetData on a 15-element path of one-character names
// (43 B → ~613 B) and a multi of five small creates (132 B → ~817 B).
// Alone and inside a batch, each message gets that class's room.
func TestEntryBatchRoomForShortElementGrowth(t *testing.T) {
	_, entry, _, codec := testSetup(t)
	const deep = "/a/b/c/d/e/f/g/h/i/j/k/l/m/n/o"
	get := func(xid int32) []byte {
		return request(t, xid, wire.OpGetData, &wire.GetDataRequest{Path: deep})
	}
	multi := func(xid int32) []byte {
		var ops []wire.MultiOp
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			ops = append(ops, wire.MultiOp{Op: wire.OpCreate, Path: "/m/" + name})
		}
		return request(t, xid, wire.OpMulti, &wire.MultiRequest{Ops: ops})
	}
	for _, msg := range [][]byte{get(1), multi(2)} {
		if len(msg)+GrowthHeadroom(len(msg)) > 1024 {
			t.Fatalf("a %d-byte request is outside the 1 KiB class this test targets", len(msg))
		}
		if _, err := entry.ProcessRequest(msg); err != nil {
			t.Fatalf("lone %d-byte request: %v", len(msg), err)
		}
	}
	out, err := entry.ProcessRequests([][]byte{get(3), multi(4), get(5), multi(6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("got %d outputs, want 4", len(out))
	}
	var g wire.GetDataRequest
	if hdr := parseRequest(t, out[2], &g); hdr.Xid != 5 {
		t.Fatalf("third output xid = %d, want 5", hdr.Xid)
	}
	if p, err := codec.DecryptPath(g.Path); err != nil || p != deep {
		t.Fatalf("get path = %q, %v", p, err)
	}
	var m wire.MultiRequest
	parseRequest(t, out[3], &m)
	if len(m.Ops) != 5 {
		t.Fatalf("multi carries %d ops, want 5", len(m.Ops))
	}
	if p, err := codec.DecryptPath(m.Ops[4].Path); err != nil || p != "/m/e" {
		t.Fatalf("multi sub-op path = %q, %v", p, err)
	}
}

// TestEntryBatchRejectsMalformedHeader drives the trusted side with
// headers whose count, lengths or capacities do not fit the buffer.
func TestEntryBatchRejectsMalformedHeader(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	msg := request(t, 1, wire.OpGetData, &wire.GetDataRequest{Path: "/a"})
	good := func() ([]byte, int) {
		size, msgLen := batchLayout([][]byte{msg})
		buf := make([]byte, size)
		packBatch(buf, [][]byte{msg})
		return buf, msgLen
	}
	cases := []struct {
		name   string
		mangle func(buf []byte, msgLen int) ([]byte, int)
	}{
		{"empty", func(buf []byte, _ int) ([]byte, int) { return buf, 0 }},
		{"zero count", func(buf []byte, n int) ([]byte, int) {
			binary.LittleEndian.PutUint32(buf, 0)
			return buf, n
		}},
		{"count over MaxBatch", func(buf []byte, n int) ([]byte, int) {
			binary.LittleEndian.PutUint32(buf, MaxBatch+1)
			return buf, n
		}},
		{"header past message", func(buf []byte, n int) ([]byte, int) {
			binary.LittleEndian.PutUint32(buf, 1<<20)
			return buf, n
		}},
		{"len over cap", func(buf []byte, n int) ([]byte, int) {
			binary.LittleEndian.PutUint32(buf[4:], binary.LittleEndian.Uint32(buf[8:])+1)
			return buf, n
		}},
		{"cap past buffer", func(buf []byte, n int) ([]byte, int) {
			binary.LittleEndian.PutUint32(buf[8:], uint32(len(buf)))
			return buf, n
		}},
		{"len past copied-in bytes", func(buf []byte, n int) ([]byte, int) {
			return buf, n - 1
		}},
	}
	for _, tc := range cases {
		buf, msgLen := tc.mangle(good())
		n, err := entry.Enclave().Ecall(EcallRequest, buf, msgLen)
		if !errors.Is(err, ErrMalformedBatch) || n != 0 {
			t.Errorf("%s: n=%d err=%v, want ErrMalformedBatch", tc.name, n, err)
		}
	}
	if d := entry.PendingDepth(); d != 0 {
		t.Fatalf("a rejected batch queued %d requests", d)
	}
	if _, err := entry.ProcessRequests(make([][]byte, MaxBatch+1)); !errors.Is(err, ErrMalformedBatch) {
		t.Fatalf("oversized batch: %v", err)
	}
}

// TestEntryBatchCopyOutHoldsOnlyOutputs: the crossing writes back the
// output header and the produced messages, back to back, and not one
// byte past them — not the headroom the enclave grew into, and not the
// half-rewritten message a failure stopped at.
func TestEntryBatchCopyOutHoldsOnlyOutputs(t *testing.T) {
	_, entry, _, _ := testSetup(t)
	msgs := [][]byte{
		request(t, 1, wire.OpSetData, &wire.SetDataRequest{Path: "/a/b/c", Data: []byte("payload"), Version: -1}),
		request(t, 2, wire.OpCreate, &wire.CreateRequest{Path: "/a/b/d", Data: []byte("grown")}),
		request(t, 3, wire.OpCode(999), nil),
	}
	for _, batch := range [][][]byte{msgs[:2], msgs} {
		size, msgLen := batchLayout(batch)
		buf := make([]byte, size)
		packBatch(buf, batch)
		sent := append([]byte(nil), buf...)
		produced, err := entry.Enclave().Ecall(EcallRequest, buf, msgLen)
		if (err != nil) != (len(batch) == 3) {
			t.Fatalf("batch of %d: err = %v", len(batch), err)
		}
		ok := int(binary.LittleEndian.Uint32(buf))
		if ok != 2 {
			t.Fatalf("batch of %d: %d outputs, want 2", len(batch), ok)
		}
		total := batchOutHeader(len(batch))
		for i := 0; i < len(batch); i++ {
			l := int(binary.LittleEndian.Uint32(buf[4+4*i:]))
			if i >= ok && l != 0 {
				t.Fatalf("length slot %d of a failed message = %d", i, l)
			}
			total += l
		}
		if produced != total {
			t.Fatalf("copy-out %d bytes, header accounts for %d", produced, total)
		}
		if !bytes.Equal(buf[produced:], sent[produced:]) {
			t.Fatalf("batch of %d: the crossing wrote past its outputs", len(batch))
		}
		// Drain the FIFO queue for the next round.
		for _, xid := range []int32{1, 2} {
			reply := wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Err: wire.ErrNoNode}, nil)
			if _, err := entry.ProcessResponse(reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := entry.ProcessRequests(nil); err != nil {
		t.Fatal(err)
	}
}
