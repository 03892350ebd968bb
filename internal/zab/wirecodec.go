package zab

import (
	"fmt"

	"securekeeper/internal/wire"
	"securekeeper/internal/ztree"
)

// Wire codec for the complete peer protocol: every Message kind the
// in-process transport carries by reference can be framed for a TCP
// peer link. The layout is a fixed header (kind, epoch, zxid) followed
// by kind-specific fields; the sender's identity is NOT on the wire —
// the mesh stamps Message.From from the link's handshaken identity, so
// a connected peer cannot claim frames as another replica's. (The
// handshake itself is a plaintext id exchange: the mesh assumes a
// trusted cluster network; authenticated peer links are a ROADMAP
// item.)
//
// Decoding is defensive throughout: every length is bounds-checked,
// record counts are capped, batch/diff zxids must ascend, and unknown
// kinds are rejected — a truncated or adversarial frame yields an
// error, never a panic or an over-allocation. The retired KindPropose
// is rejected like an unknown kind.

// maxDiffRecords bounds the record count accepted in a SYNCDIFF frame.
// Diffs are capped by Config.MaxLogEntries on the sender; this is the
// decode-side ceiling for any sender.
const maxDiffRecords = wire.MaxVectorLen

// Serialize implements wire.Record. Only the fields meaningful for the
// message's kind are written.
func (m *Message) Serialize(e *wire.Encoder) {
	e.WriteInt32(int32(m.Kind))
	e.WriteInt64(m.Epoch)
	e.WriteInt64(m.Zxid)
	switch m.Kind {
	case KindVote:
		e.WriteInt64(int64(m.VoteFor))
		e.WriteInt64(m.VoteZxid)
		e.WriteBool(m.VoteReply)
	case KindFollowerInfo, KindNewLeaderAck, KindAck, KindCommit, KindPing, KindPong, KindObserverInfo, KindRemoved:
		// Header only: the zxid field carries the payload.
	case KindProposeBatch, KindObserverCommit:
		e.WriteInt32(int32(len(m.Batch)))
		for i := range m.Batch {
			m.Batch[i].Serialize(e)
		}
	case KindSyncDiff:
		e.WriteInt32(int32(len(m.Diff)))
		for i := range m.Diff {
			m.Diff[i].Serialize(e)
		}
		e.WriteBuffer(m.Config)
	case KindSyncSnap:
		e.WriteBool(m.Snapshot != nil)
		if m.Snapshot != nil {
			m.Snapshot.Serialize(e)
		}
		e.WriteBuffer(m.Config)
	case KindApp:
		e.WriteBuffer(m.App)
	}
}

// Deserialize implements wire.Record.
func (m *Message) Deserialize(d *wire.Decoder) error {
	kind, err := d.ReadInt32()
	if err != nil {
		return err
	}
	m.Kind = Kind(kind)
	if m.Epoch, err = d.ReadInt64(); err != nil {
		return err
	}
	if m.Zxid, err = d.ReadInt64(); err != nil {
		return err
	}
	switch m.Kind {
	case KindVote:
		peer, err := d.ReadInt64()
		if err != nil {
			return err
		}
		m.VoteFor = PeerID(peer)
		if m.VoteZxid, err = d.ReadInt64(); err != nil {
			return err
		}
		if m.VoteReply, err = d.ReadBool(); err != nil {
			return err
		}
	case KindFollowerInfo, KindNewLeaderAck, KindAck, KindCommit, KindPing, KindPong, KindObserverInfo, KindRemoved:
		// Header only.
	case KindProposeBatch, KindObserverCommit:
		if m.Batch, err = deserializeRecords(d, maxBatchRecords, "batch"); err != nil {
			return err
		}
	case KindSyncDiff:
		if m.Diff, err = deserializeRecords(d, maxDiffRecords, "diff"); err != nil {
			return err
		}
		if m.Config, err = d.ReadBuffer(); err != nil {
			return err
		}
	case KindSyncSnap:
		present, err := d.ReadBool()
		if err != nil {
			return err
		}
		if present {
			snap := new(ztree.Snapshot)
			if err := snap.Deserialize(d); err != nil {
				return err
			}
			m.Snapshot = snap
		}
		if m.Config, err = d.ReadBuffer(); err != nil {
			return err
		}
	case KindApp:
		if m.App, err = d.ReadBuffer(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("zab: unknown message kind %d", kind)
	}
	return nil
}

// deserializeRecords reads a bounded, strictly-ascending proposal
// record vector (the invariant followers rely on when replaying a
// frame in zxid order).
func deserializeRecords(d *wire.Decoder, limit int, what string) ([]ProposalRecord, error) {
	n, err := d.ReadInt32()
	if err != nil {
		return nil, err
	}
	if n < 0 || int(n) > limit {
		return nil, fmt.Errorf("zab: bad %s record count %d", what, n)
	}
	if n == 0 {
		return nil, nil
	}
	// Cap the pre-allocation: the claimed count is attacker-controlled
	// until the records actually parse.
	out := make([]ProposalRecord, 0, min(int(n), 4096))
	var prev int64
	for i := int32(0); i < n; i++ {
		var rec ProposalRecord
		if err := rec.Deserialize(d); err != nil {
			return nil, fmt.Errorf("zab: %s record %d: %w", what, i, err)
		}
		if i > 0 && rec.Txn.Zxid <= prev {
			return nil, fmt.Errorf("zab: %s zxid order violated: %#x after %#x", what, rec.Txn.Zxid, prev)
		}
		prev = rec.Txn.Zxid
		out = append(out, rec)
	}
	return out, nil
}
