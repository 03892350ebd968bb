package core

// End-to-end checks of the commit-processor split against the enclave
// interceptor path. The entry enclave matches responses to requests
// with a strict FIFO queue (§4.2): it records (xid, op, plaintext path)
// per request and pops one entry per response, trusting release order.
// The split pipeline executes reads concurrently with pending writes,
// but OnRequests still runs serially on the session reader goroutine (in
// submission order) and OnResponses serially on the writer goroutine (in
// release order == submission order), with each batch transformed in
// slice order, so the enclave's assumption must keep holding. These tests pin that: an ordering violation surfaces as
// an enclave "FIFO violation" error, which kills the session.

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"securekeeper/internal/client"
)

// TestEnclaveResponseMatchingUnderPipelinedMixedOps floods a single
// SecureKeeper session with interleaved async writes and reads. Every
// response must decrypt to the value the session itself wrote last —
// proving both the enclave FIFO matching and read-after-own-write
// survive concurrent read execution.
func TestEnclaveResponseMatchingUnderPipelinedMixedOps(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Create(ctxbg, "/pipe", []byte("v0"), 0); err != nil {
		t.Fatal(err)
	}

	const rounds = 25
	const readsPerRound = 3
	type round struct {
		val   []byte
		set   *client.Future
		reads [readsPerRound]*client.Future
	}
	var rs [rounds]round
	for i := range rs {
		rs[i].val = []byte(fmt.Sprintf("value-%03d", i))
		rs[i].set = cl.SetAsync("/pipe", rs[i].val, -1)
		for j := range rs[i].reads {
			rs[i].reads[j] = cl.GetAsync("/pipe", false)
		}
	}
	for i := range rs {
		if res := rs[i].set.Wait(); res.Err != nil {
			t.Fatalf("round %d set: %v", i, res.Err)
		}
		for j, f := range rs[i].reads {
			res := f.Wait()
			if res.Err != nil {
				t.Fatalf("round %d read %d: %v (enclave FIFO matching broke?)", i, j, res.Err)
			}
			// Single writer session: the read must see this round's
			// value or a later round's (reads may observe newer own
			// writes already committed), never an earlier one.
			got := string(res.Data)
			var gotRound int
			if n, err := fmt.Sscanf(got, "value-%d", &gotRound); n != 1 || err != nil {
				t.Fatalf("round %d read %d: undecryptable or foreign payload %q", i, j, got)
			}
			if gotRound < i {
				t.Fatalf("round %d read %d observed stale own-write %q", i, j, got)
			}
		}
	}
}

// TestEnclaveMatchingManySessions runs the same pipelined mix over
// several SecureKeeper sessions at once (each session has its own entry
// enclave and FIFO queue) with all sessions sharing one znode set, so
// concurrent read execution across sessions interleaves with foreign
// commits on the shared paths.
func TestEnclaveMatchingManySessions(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)

	setup, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const shared = 4
	for i := 0; i < shared; i++ {
		if _, err := setup.Create(ctxbg, fmt.Sprintf("/s%d", i), []byte("init"), 0); err != nil {
			t.Fatal(err)
		}
	}
	_ = setup.Close()

	const sessions = 6
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cl, err := c.Connect(s%c.Size(), client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *client.Client, id int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				path := fmt.Sprintf("/s%d", n%shared)
				if n%5 == 0 {
					if _, err := cl.Set(ctxbg, path, []byte(fmt.Sprintf("s%d-n%d", id, n)), -1); err != nil {
						errs <- fmt.Errorf("session %d set %s: %w", id, path, err)
						return
					}
					continue
				}
				data, _, err := cl.Get(ctxbg, path)
				if err != nil {
					errs <- fmt.Errorf("session %d get %s: %w", id, path, err)
					return
				}
				// Whatever the value, it must decrypt to a plaintext one
				// of the sessions wrote (or the init marker) — garbage
				// means a response was matched to the wrong request.
				if !bytes.Equal(data, []byte("init")) && !bytes.HasPrefix(data, []byte("s")) {
					errs <- fmt.Errorf("session %d got mismatched plaintext %q for %s", id, data, path)
					return
				}
			}
		}(cl, s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEcallMessagesPerCrossingMetric pipelines a mixed run through one
// SecureKeeper session and checks the messages-per-crossing histogram
// against the crossing counter: every ec_request crossing is observed
// once, and together they carried every request.
func TestEcallMessagesPerCrossingMetric(t *testing.T) {
	c := newTestCluster(t, SecureKeeper)
	cl, err := c.Connect(0, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Create(ctxbg, "/m", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	const ops = 48
	futures := make([]*client.Future, 0, ops)
	for i := 0; i < ops; i++ {
		if i%4 == 0 {
			futures = append(futures, cl.SetAsync("/m", []byte(fmt.Sprint(i)), -1))
		} else {
			futures = append(futures, cl.GetAsync("/m", false))
		}
	}
	for i, f := range futures {
		if res := f.Wait(); res.Err != nil {
			t.Fatalf("op %d: %v", i, res.Err)
		}
	}

	var text bytes.Buffer
	if err := c.Obs(0).WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	sample := func(series string) int64 {
		t.Helper()
		m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`).FindSubmatch(text.Bytes())
		if m == nil {
			t.Fatalf("no sample %s in /metrics", series)
		}
		v, err := strconv.ParseFloat(string(m[1]), 64)
		if err != nil {
			t.Fatal(err)
		}
		return int64(v)
	}
	for _, op := range []string{"ec_request", "ec_response"} {
		crossings := sample(`enclave_ecalls_total{op="` + op + `"}`)
		count := sample(`enclave_ecall_messages_count{op="` + op + `"}`)
		msgs := sample(`enclave_ecall_messages_sum{op="` + op + `"}`)
		if count != crossings {
			t.Fatalf("%s: %d crossings, histogram saw %d", op, crossings, count)
		}
		if msgs < ops+1 || msgs < count {
			t.Fatalf("%s: %d messages over %d crossings, want at least %d", op, msgs, count, ops+1)
		}
		t.Logf("%s: %d messages in %d crossings", op, msgs, count)
	}
}
