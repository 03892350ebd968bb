package enclave

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"securekeeper/internal/sgx"
	"securekeeper/internal/skcrypto"
	"securekeeper/internal/wire"
)

// benchEntry provisions an entry enclave for microbenchmarks.
func benchEntry(b *testing.B) (*Entry, *skcrypto.Codec) {
	b.Helper()
	rt := sgx.NewRuntime(sgx.EPCUsableBytes, sgx.DefaultCostModel(), false)
	key := bytes.Repeat([]byte{7}, skcrypto.KeySize)
	ks, err := NewKeyServerWithKey(key,
		sgx.MeasureCode(EntryCodeIdentity), sgx.MeasureCode(CounterCodeIdentity))
	if err != nil {
		b.Fatal(err)
	}
	ks.TrustPlatform(rt.QuoteVerificationKey())
	entry, err := NewEntry(rt)
	if err != nil {
		b.Fatal(err)
	}
	if err := ProvisionEntry(entry, ks, nil); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(entry.Close)
	codec, err := skcrypto.NewCodec(key)
	if err != nil {
		b.Fatal(err)
	}
	return entry, codec
}

// BenchmarkEntryGetRoundTrip measures the full entry-enclave cost of one
// GET: request transformation (path encryption towards the store) plus
// response transformation (payload decryption and binding check).
func BenchmarkEntryGetRoundTrip(b *testing.B) {
	for _, size := range []int{0, 1024, 4096} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			entry, codec := benchEntry(b)
			const path = "/bench/target"
			stored, err := codec.EncryptPayload(path, make([]byte, size), false)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := wire.MarshalPair(
					&wire.RequestHeader{Xid: int32(i + 1), Op: wire.OpGetData},
					&wire.GetDataRequest{Path: path},
				)
				if _, err := entry.ProcessRequest(req); err != nil {
					b.Fatal(err)
				}
				resp := wire.MarshalPair(
					&wire.ReplyHeader{Xid: int32(i + 1), Err: wire.ErrOK},
					&wire.GetDataResponse{Data: stored, Stat: wire.Stat{DataLength: int32(len(stored))}},
				)
				if _, err := entry.ProcessResponse(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEntrySetRequest measures the SET request transformation
// (path encryption plus payload encryption with binding).
func BenchmarkEntrySetRequest(b *testing.B) {
	entry, _ := benchEntry(b)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := wire.MarshalPair(
			&wire.RequestHeader{Xid: int32(i + 1), Op: wire.OpSetData},
			&wire.SetDataRequest{Path: "/bench/target", Data: payload, Version: -1},
		)
		out, err := entry.ProcessRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		// Drain the FIFO queue so it does not grow across iterations.
		_ = out
		resp := wire.MarshalPair(
			&wire.ReplyHeader{Xid: int32(i + 1), Err: wire.ErrOK},
			&wire.SetDataResponse{},
		)
		if _, err := entry.ProcessResponse(resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntryBatch measures a batched SET round trip: k SetData
// requests through one ec_request crossing and their replies through
// one ec_response crossing. An op is one batch; ns/msg and allocs/msg
// show what batching saves per message against msgs=1.
func BenchmarkEntryBatch(b *testing.B) {
	for _, k := range []int{1, 8, 40} {
		b.Run(fmt.Sprintf("msgs=%d", k), func(b *testing.B) {
			entry, _ := benchEntry(b)
			payload := make([]byte, 1024)
			reqs := make([][]byte, k)
			resps := make([][]byte, k)
			for i := range reqs {
				xid := int32(i + 1)
				reqs[i] = wire.MarshalPair(
					&wire.RequestHeader{Xid: xid, Op: wire.OpSetData},
					&wire.SetDataRequest{Path: fmt.Sprintf("/bench/target-%d", i), Data: payload, Version: -1},
				)
				resps[i] = wire.MarshalPair(&wire.ReplyHeader{Xid: xid, Err: wire.ErrOK}, &wire.SetDataResponse{})
			}
			batch := make([][]byte, k)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(batch, reqs)
				if _, err := entry.ProcessRequests(batch); err != nil {
					b.Fatal(err)
				}
				copy(batch, resps)
				if _, err := entry.ProcessResponses(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			msgs := float64(b.N * k)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/msgs, "ns/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/msgs, "allocs/msg")
		})
	}
}
