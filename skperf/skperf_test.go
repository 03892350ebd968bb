package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests check
// against: every metric it names must be emitted with its unit.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortRun runs one workload with a window of a fraction of a second.
func shortRun(t *testing.T, workload string, trace, corrupt bool) result {
	t.Helper()
	opt := options{
		workload:      workload,
		seed:          DefaultSeed,
		window:        300 * time.Millisecond,
		trace:         trace,
		dataRoot:      t.TempDir(),
		setups:        1,
		corruptExpect: corrupt,
	}
	res, err := run(context.Background(), opt, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	bf := loadBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			res := shortRun(t, w.Name, trace, false)
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got, exp []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			for _, m := range want {
				exp = append(exp, m.Name)
				if res.Metrics[m.Name].Unit != m.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, want %q", w.Name, trace, m.Name, res.Metrics[m.Name].Unit, m.Unit)
				}
			}
			sort.Strings(got)
			sort.Strings(exp)
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s trace=%v: metrics %v, want %v", w.Name, trace, got, exp)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", w.Name, name, m.Value)
					}
				}
			}
		}
	}
}

func TestCorruptedExpectationFailsReadMix(t *testing.T) {
	if res := shortRun(t, "sk-read-mix", false, true); res.Correct {
		t.Fatal("read-mix passed its check although one read expected the wrong key")
	}
}

func TestVerifyRecord(t *testing.T) {
	var buf [mixRecord]byte
	rec := mixRecordFor(buf[:], 77, 1, 5)
	if err := verifyRecord(77, rec); err != nil {
		t.Fatalf("intact record rejected: %v", err)
	}
	if verifyRecord(78, rec) == nil {
		t.Error("record accepted for another key")
	}
	for _, i := range []int{0, 4, 6, 50, mixRecord - 1} {
		bad := append([]byte(nil), rec...)
		bad[i] ^= 0x40
		if verifyRecord(77, bad) == nil {
			t.Errorf("record with byte %d flipped accepted", i)
		}
	}
	if verifyRecord(77, rec[:mixRecord-1]) == nil {
		t.Error("truncated record accepted")
	}
}

func TestCheckHolds(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	ok := []hold{{root: 1, from: at(0), to: at(5), token: 10}, {root: 1, from: at(6), to: at(9), token: 12},
		{root: 2, from: at(1), to: at(7), token: 11}}
	if n, err := checkHolds(ok); err != nil || n != 0 {
		t.Fatalf("disjoint tenures: %d inversions, %v", n, err)
	}
	if _, err := checkHolds(append(ok, hold{root: 1, from: at(8), to: at(10), token: 13})); err == nil {
		t.Error("overlapping tenures accepted")
	}
	if n, err := checkHolds(append(ok, hold{root: 2, from: at(8), to: at(10), token: 11})); err != nil || n != 1 {
		t.Errorf("repeated fencing token: %d inversions, %v", n, err)
	}
}

// TestSeedsRepeat: the default and the held-out seed each give the
// same key sequence every time, and different sequences from each
// other.
func TestSeedsRepeat(t *testing.T) {
	for _, mk := range []func(int64) workload{
		func(s int64) workload { return &readMix{seed: s} },
		func(s int64) workload { return &lockChurn{seed: s} },
	} {
		a, b := mk(DefaultSeed).paths(), mk(DefaultSeed).paths()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%T: default seed gives two sequences", mk(0))
		}
		c, d := mk(HeldOutSeed).paths(), mk(HeldOutSeed).paths()
		if !reflect.DeepEqual(c, d) {
			t.Errorf("%T: held-out seed gives two sequences", mk(0))
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%T: both seeds give the same sequence", mk(0))
		}
	}
}
