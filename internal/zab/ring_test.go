package zab

import (
	"testing"

	"securekeeper/internal/ztree"
)

// TestCommitRingKeepsNewestEntries pushes past the cap: the ring holds
// exactly the newest max commits, oldest first, and diffSince serves
// every zxid from the ring's base on but none before it.
func TestCommitRingKeepsNewestEntries(t *testing.T) {
	const max, total = 10, 37
	p := &Peer{epoch: 1}
	for i := int64(1); i <= total; i++ {
		p.commitLog.push(ProposalRecord{Txn: ztree.Txn{Zxid: MakeZxid(1, i)}}, max)
	}
	ring := &p.commitLog
	if ring.len() != max {
		t.Fatalf("len = %d, want %d", ring.len(), max)
	}
	for i := 0; i < max; i++ {
		if got, want := ring.at(i).Txn.Zxid, MakeZxid(1, total-max+1+int64(i)); got != want {
			t.Fatalf("entry %d = %#x, want %#x", i, got, want)
		}
	}
	if want := MakeZxid(1, total-max); ring.base != want {
		t.Fatalf("base = %#x, want %#x", ring.base, want)
	}

	for from := int64(total - max); from <= total; from++ {
		diff, ok := p.diffSince(MakeZxid(1, from))
		if !ok || len(diff) != int(total-from) {
			t.Fatalf("diffSince(%d) = %d records, %v; want %d", from, len(diff), ok, total-from)
		}
		for i, rec := range diff {
			if rec.Txn.Zxid != MakeZxid(1, from+1+int64(i)) {
				t.Fatalf("diffSince(%d)[%d] = %#x", from, i, rec.Txn.Zxid)
			}
		}
	}
	if _, ok := p.diffSince(MakeZxid(1, total-max-1)); ok {
		t.Fatal("diffSince before the ring's base must fall back to a snapshot")
	}

	// A snapshot install clears the ring; the next commits start over.
	p.commitLog.reset(MakeZxid(1, 100))
	if ring.len() != 0 {
		t.Fatalf("len after reset = %d", ring.len())
	}
	p.commitLog.push(ProposalRecord{Txn: ztree.Txn{Zxid: MakeZxid(1, 101)}}, max)
	if diff, ok := p.diffSince(MakeZxid(1, 100)); !ok || len(diff) != 1 {
		t.Fatalf("diffSince(snapshot) = %d records, %v", len(diff), ok)
	}
}
