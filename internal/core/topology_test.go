package core

import (
	"strings"
	"testing"

	"securekeeper/internal/zab"
)

func TestParseTopology(t *testing.T) {
	spec := "1@127.0.0.1:7001;2@127.0.0.1:7002;3@127.0.0.1:7003;4@127.0.0.1:7004:observer"
	topo, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(topo.Voters); got != 3 {
		t.Fatalf("voters = %d, want 3", got)
	}
	if got := len(topo.Observers); got != 1 {
		t.Fatalf("observers = %d, want 1", got)
	}
	if !topo.IsObserver(4) || topo.IsObserver(1) {
		t.Fatalf("observer roles wrong: %+v", topo)
	}
	if topo.Addr(4) != "127.0.0.1:7004" {
		t.Fatalf("observer addr = %q", topo.Addr(4))
	}
	if got := topo.String(); got != spec {
		t.Fatalf("round trip:\n got %q\nwant %q", got, spec)
	}
	if ids := topo.VoterIDs(); len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("voter ids = %v", ids)
	}
	if ids := topo.ObserverIDs(); len(ids) != 1 || ids[0] != 4 {
		t.Fatalf("observer ids = %v", ids)
	}
	if !topo.Has(2) || topo.Has(9) {
		t.Fatal("Has wrong")
	}
	if topo.Size() != 4 {
		t.Fatalf("size = %d", topo.Size())
	}
	if got := len(topo.Addrs()); got != 4 {
		t.Fatalf("addrs = %d", got)
	}
	obs := topo.ObserverSet()
	if !obs[4] || obs[1] {
		t.Fatalf("observer set = %v", obs)
	}
}

func TestParseTopologyRejectsMalformedSpecs(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", "", "no voters"},
		{"only observers", "1@h:1:observer", "no voters"},
		{"missing at", "1=127.0.0.1:7001", "want id@host:port"},
		{"bad id", "x@127.0.0.1:7001", "bad id"},
		{"negative id", "-3@127.0.0.1:7001", "bad id"},
		{"no port", "1@localhost", "bad address"},
		{"duplicate id", "1@h:1;1@h:2", "duplicate id"},
		{"duplicate across roles", "1@h:1;1@h:2:observer", "duplicate id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTopology(tc.spec)
			if err == nil {
				t.Fatalf("ParseTopology(%q) succeeded, want error containing %q", tc.spec, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopologyValidateRejectsDualRole(t *testing.T) {
	topo := Topology{
		Voters:    map[zab.PeerID]string{1: "h:1"},
		Observers: map[zab.PeerID]string{1: "h:2"},
	}
	if err := topo.Validate(); err == nil || !strings.Contains(err.Error(), "both voter and observer") {
		t.Fatalf("err = %v", err)
	}
}
