package sgx

import (
	"math/rand"
	"slices"
	"testing"
)

// lruModel is the reference EPC: one most-recent-first list of pages.
type lruModel struct {
	capacity     int
	pages        []pageID
	hits, faults int64
}

func (m *lruModel) access(enclave uint64, page int64) AccessKind {
	id := pageID{enclave: enclave, page: page}
	if i := slices.Index(m.pages, id); i >= 0 {
		m.pages = slices.Delete(m.pages, i, i+1)
		m.pages = slices.Insert(m.pages, 0, id)
		m.hits++
		return AccessDRAM
	}
	m.faults++
	if len(m.pages) >= m.capacity {
		m.pages = m.pages[:len(m.pages)-1]
	}
	m.pages = slices.Insert(m.pages, 0, id)
	return AccessPageFault
}

func (m *lruModel) evict(enclave uint64) {
	m.pages = slices.DeleteFunc(m.pages, func(id pageID) bool { return id.enclave == enclave })
}

// lruOrder lists the EPC's resident pages most recent first.
func lruOrder(e *EPC) []pageID {
	var out []pageID
	for n := e.head; n != nil; n = n.next {
		out = append(out, n.id)
	}
	return out
}

// TestEPCEvictKeepsOtherEnclaves scripts accesses and enclave
// destructions over a small EPC and checks every step against the
// reference LRU: the same hit and fault counts, and after an eviction
// the other enclaves' pages stay resident in their LRU order.
func TestEPCEvictKeepsOtherEnclaves(t *testing.T) {
	const capacity = 16
	epc := NewEPC(capacity * PageSize)
	model := &lruModel{capacity: capacity}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 5000; step++ {
		enclave := uint64(1 + rng.Intn(4))
		if rng.Intn(40) == 0 {
			epc.Evict(enclave)
			model.evict(enclave)
		} else {
			page := int64(rng.Intn(8))
			if got, want := epc.Access(enclave, page), model.access(enclave, page); got != want {
				t.Fatalf("step %d: access (%d,%d) = %v, reference %v", step, enclave, page, got, want)
			}
		}
		if got := lruOrder(epc); !slices.Equal(got, model.pages) {
			t.Fatalf("step %d: LRU order %v, reference %v", step, got, model.pages)
		}
		if epc.ResidentPages() != len(model.pages) {
			t.Fatalf("step %d: %d resident, reference %d", step, epc.ResidentPages(), len(model.pages))
		}
	}
	hits, faults := epc.Stats()
	if hits != model.hits || faults != model.faults {
		t.Fatalf("hits/faults = %d/%d, reference %d/%d", hits, faults, model.hits, model.faults)
	}
	if hits == 0 || faults == 0 {
		t.Fatal("script exercised no hits or no faults")
	}
}
