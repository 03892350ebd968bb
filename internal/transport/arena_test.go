package transport

import (
	"bytes"
	"testing"
)

// TestFrameArenaCarves: carves keep capacity equal to length, never
// alias one another as chunks grow from arenaFirstChunk to
// arenaChunkSize, and frames above arenaMaxCarve bypass the arena.
func TestFrameArenaCarves(t *testing.T) {
	var a frameArena
	var carves [][]byte
	var chunks []int
	for i := 0; len(chunks) < 12; i++ {
		n := 1 + (i*397)%arenaMaxCarve // sizes from 1 B up to arenaMaxCarve
		before := a.buf
		b := a.carve(n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("carve(%d): len %d cap %d", n, len(b), cap(b))
		}
		if len(before) == 0 || &a.buf[0] != &before[0] {
			chunks = append(chunks, len(a.buf))
		}
		for j := range b {
			b[j] = byte(i)
		}
		carves = append(carves, b)
	}
	for i, b := range carves {
		if !bytes.Equal(b, bytes.Repeat([]byte{byte(i)}, len(b))) {
			t.Fatalf("carve %d was overwritten by a later carve", i)
		}
	}
	if chunks[0] != arenaFirstChunk {
		t.Fatalf("first chunk %d bytes, want %d", chunks[0], arenaFirstChunk)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i] < chunks[i-1] || chunks[i] > arenaChunkSize {
			t.Fatalf("chunk sizes %v: must not shrink or exceed %d", chunks, arenaChunkSize)
		}
	}
	if last := chunks[len(chunks)-1]; last != arenaChunkSize {
		t.Fatalf("chunk sizes %v never reached %d", chunks, arenaChunkSize)
	}

	buf, off := a.buf, a.off
	big := a.carve(arenaMaxCarve + 1)
	if len(big) != arenaMaxCarve+1 || cap(big) != arenaMaxCarve+1 {
		t.Fatalf("big carve: len %d cap %d", len(big), cap(big))
	}
	if &a.buf[0] != &buf[0] || a.off != off {
		t.Fatal("a frame above arenaMaxCarve was carved from the arena")
	}
}

// TestChanConnShortSessionArena: the frames of one short secure
// session (handshake flights, then connect, lock and close records, as
// sealed on an in-process pipe) carve under 4 KiB of arena across both
// ends, where a full chunk per end used to cost 64 KiB.
func TestChanConnShortSessionArena(t *testing.T) {
	a, b := NewChanPipe()
	defer a.Close()
	client := []int{32, 44, 42, 46, 52, 39, 58}
	server := []int{128, 36, 32, 32, 62, 55}
	total := sendCountingArena(t, a, client) + sendCountingArena(t, b, server)
	if frames := len(client) + len(server); frames != 13 {
		t.Fatalf("%d frames, want 13", frames)
	}
	if total >= 4<<10 {
		t.Fatalf("13-frame session allocated %d arena bytes, want < 4096", total)
	}
}

// sendCountingArena sends frames of the given sizes through c and
// returns the bytes of the arena chunks that allocated.
func sendCountingArena(t *testing.T, c *ChanConn, sizes []int) int {
	t.Helper()
	total := 0
	for _, n := range sizes {
		before := c.sendArena.buf
		if err := c.SendFrame(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if after := c.sendArena.buf; len(before) == 0 || &after[0] != &before[0] {
			total += len(after)
		}
	}
	return total
}
