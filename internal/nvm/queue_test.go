package nvm

import (
	"fmt"
	"math/rand"
	"testing"
)

func qcfg() QueueConfig {
	return QueueConfig{Entries: 8, DrainAt: 4, DrainTo: 1, AckNs: 5, ForwardNs: 10}
}

func TestQueueFastAck(t *testing.T) {
	q := NewQueue(qcfg(), New(DefaultConfig()))
	if done := q.Write(100, 0); done != 105 {
		t.Fatalf("ack = %d, want 105", done)
	}
	if q.dev.Writes != 0 {
		t.Fatal("write must be buffered, not issued")
	}
}

func TestQueueMerging(t *testing.T) {
	q := NewQueue(qcfg(), New(DefaultConfig()))
	q.Write(0, 0x1000)
	q.Write(0, 0x1000)
	q.Write(0, 0x1020) // same 64B line as 0x1000? no: 0x1000 vs 0x1020 same line (0x1000..0x103f)
	if q.Merged != 2 {
		t.Fatalf("Merged = %d, want 2", q.Merged)
	}
	if q.Occupancy() != 1 {
		t.Fatalf("occupancy = %d, want 1", q.Occupancy())
	}
	q.Flush(0)
	if q.dev.Writes != 1 {
		t.Fatalf("device writes = %d, want 1 (merged)", q.dev.Writes)
	}
}

func TestQueueForwarding(t *testing.T) {
	q := NewQueue(qcfg(), New(DefaultConfig()))
	q.Write(0, 0x2000)
	if done := q.Read(0, 0x2010); done != 10 {
		t.Fatalf("forwarded read = %d, want 10", done)
	}
	if q.Forwarded != 1 || q.dev.Reads != 0 {
		t.Fatal("read must be forwarded from the queue")
	}
	// A read to a non-pending line goes to the device.
	q.Read(0, 0x9000)
	if q.dev.Reads != 1 {
		t.Fatal("non-pending read must reach the device")
	}
}

func TestQueueDrainWatermark(t *testing.T) {
	q := NewQueue(qcfg(), New(DefaultConfig()))
	var done uint64
	for i := 0; i < 4; i++ { // 4th write hits DrainAt=4
		done = q.Write(0, uint64(i)*4096)
	}
	if q.Drains != 1 {
		t.Fatalf("Drains = %d, want 1", q.Drains)
	}
	if q.Occupancy() != 1 {
		t.Fatalf("post-drain occupancy = %d, want DrainTo=1", q.Occupancy())
	}
	if q.dev.Writes != 3 {
		t.Fatalf("device writes = %d, want 3", q.dev.Writes)
	}
	if done <= 5 {
		t.Fatal("a drain must block the writer")
	}
}

func TestQueueFlush(t *testing.T) {
	q := NewQueue(qcfg(), New(DefaultConfig()))
	q.Write(0, 0)
	q.Write(0, 4096)
	q.Flush(0)
	if q.Occupancy() != 0 || q.dev.Writes != 2 {
		t.Fatalf("flush left occupancy=%d writes=%d", q.Occupancy(), q.dev.Writes)
	}
}

func TestQueueConfigSanitised(t *testing.T) {
	q := NewQueue(QueueConfig{}, New(DefaultConfig()))
	// Degenerate config must not panic or deadlock.
	for i := 0; i < 10; i++ {
		q.Write(0, uint64(i)*4096)
	}
	q.Flush(0)
	if q.dev.Writes != 10 {
		t.Fatalf("writes = %d", q.dev.Writes)
	}
}

func TestDeviceImplementsMemory(t *testing.T) {
	var _ Memory = New(DefaultConfig())
	var _ Memory = NewQueue(qcfg(), New(DefaultConfig()))
}

// queueStep applies one seeded op — a write, a read or a flush — at a
// monotonically advancing time and renders its completion time.
func queueStep(q *Queue, rng *rand.Rand, now *uint64) string {
	*now += uint64(rng.Intn(50))
	addr := uint64(rng.Intn(16)) * 64 * 33 // 16 lines over several banks
	switch rng.Intn(8) {
	case 0, 1, 2, 3:
		return fmt.Sprintf("W%d", q.Write(*now, addr))
	case 4, 5, 6:
		return fmt.Sprintf("R%d", q.Read(*now, addr))
	default:
		return fmt.Sprintf("F%d", q.Flush(*now))
	}
}

// TestQueueResetMatchesNew: a used queue after Reset behaves exactly like a
// new one. Each runs over its own device, and the two devices see the same
// history: the used queue's twin replays the warm-up, so both devices leave
// it in the same state and only the queues' own state could differ.
func TestQueueResetMatchesNew(t *testing.T) {
	used := NewQueue(qcfg(), New(DefaultConfig()))
	twinDev := New(DefaultConfig())
	twin := NewQueue(qcfg(), twinDev)
	warm := rand.New(rand.NewSource(1))
	var now uint64
	for i := 0; i < 500; i++ {
		seed, at := warm.Int63(), now
		queueStep(used, rand.New(rand.NewSource(seed)), &now)
		queueStep(twin, rand.New(rand.NewSource(seed)), &at)
	}
	// End the warm-up with a write pending on every line the stream
	// touches: Reset must drop them all.
	for i := uint64(0); i < 16; i++ {
		used.Write(now, i*64*33)
		twin.Write(now, i*64*33)
	}
	used.Reset()
	fresh := NewQueue(qcfg(), twinDev)
	if used.Occupancy() != 0 || used.Enqueued != 0 || used.Merged != 0 || used.Forwarded != 0 || used.Drains != 0 {
		t.Fatalf("Reset left occupancy %d and counters %d/%d/%d/%d", used.Occupancy(),
			used.Enqueued, used.Merged, used.Forwarded, used.Drains)
	}
	ra, rb := rand.New(rand.NewSource(2)), rand.New(rand.NewSource(2))
	ta, tb := now, now
	for i := 0; i < 2000; i++ {
		if got, want := queueStep(used, ra, &ta), queueStep(fresh, rb, &tb); got != want {
			t.Fatalf("op %d: after Reset %s, new queue %s", i, got, want)
		}
	}
	if used.Enqueued != fresh.Enqueued || used.Merged != fresh.Merged ||
		used.Forwarded != fresh.Forwarded || used.Drains != fresh.Drains {
		t.Fatalf("counters after Reset %d/%d/%d/%d, new queue %d/%d/%d/%d",
			used.Enqueued, used.Merged, used.Forwarded, used.Drains,
			fresh.Enqueued, fresh.Merged, fresh.Forwarded, fresh.Drains)
	}
}
