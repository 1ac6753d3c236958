package nvm

// Memory is the timing interface the controller core writes through: the
// raw device, or a write queue in front of it.
type Memory interface {
	// Read returns the completion time of a 64 B read issued at now.
	Read(now, addr uint64) uint64
	// Write returns the completion time of a 64 B write issued at now.
	Write(now, addr uint64) uint64
}

// QueueConfig sizes the controller's write queue.
type QueueConfig struct {
	// Entries is the queue capacity in pending lines.
	Entries int
	// DrainAt is the occupancy that triggers a blocking drain down to
	// DrainTo (a high/low watermark pair, as in real controllers).
	DrainAt, DrainTo int
	// AckNs is the fast-acknowledge latency of an enqueued write.
	AckNs uint64
	// ForwardNs is the latency of a read served by store-to-load
	// forwarding from the queue.
	ForwardNs uint64
}

// DefaultQueueConfig returns a 64-entry queue with an 8-entry drain band.
func DefaultQueueConfig() QueueConfig {
	return QueueConfig{Entries: 64, DrainAt: 56, DrainTo: 16, AckNs: 5, ForwardNs: 10}
}

// Queue buffers writes in front of the device. Repeated writes to the same
// line merge — the effect the paper credits for page_phyc's deferral:
// "This delay enables the memory controller to merge more writes and
// copies in the request queue" (Section IV-C). Reads are served by
// store-to-load forwarding when they hit a pending write.
type Queue struct {
	cfg     QueueConfig
	dev     *Device
	pending map[uint64]bool // line addresses with a buffered write
	order   []uint64        // FIFO drain order

	Enqueued  uint64
	Merged    uint64 // writes absorbed by an already-pending line
	Forwarded uint64 // reads served from the queue
	Drains    uint64 // blocking drain episodes
}

// NewQueue wraps the device with a write queue.
func NewQueue(cfg QueueConfig, dev *Device) *Queue {
	if cfg.Entries < 1 {
		cfg.Entries = 1
	}
	if cfg.DrainAt <= 0 || cfg.DrainAt > cfg.Entries {
		cfg.DrainAt = cfg.Entries
	}
	if cfg.DrainTo < 0 || cfg.DrainTo >= cfg.DrainAt {
		cfg.DrainTo = cfg.DrainAt / 2
	}
	return &Queue{
		cfg:     cfg,
		dev:     dev,
		pending: make(map[uint64]bool),
	}
}

// Occupancy returns the number of buffered writes.
func (q *Queue) Occupancy() int { return len(q.order) }

func (q *Queue) lineOf(addr uint64) uint64 { return addr &^ 63 }

// Write enqueues a line write. Writes to an already-pending line merge for
// free; crossing the high watermark triggers a blocking partial drain.
func (q *Queue) Write(now, addr uint64) uint64 {
	line := q.lineOf(addr)
	done := now + q.cfg.AckNs
	if q.pending[line] {
		q.Merged++
		return done
	}
	q.pending[line] = true
	q.order = append(q.order, line)
	q.Enqueued++
	if len(q.order) >= q.cfg.DrainAt {
		q.Drains++
		done = q.drainTo(done, q.cfg.DrainTo)
	}
	return done
}

// Read serves a line read: forwarded from the queue if a write to the same
// line is pending, otherwise from the device.
func (q *Queue) Read(now, addr uint64) uint64 {
	if q.pending[q.lineOf(addr)] {
		q.Forwarded++
		return now + q.cfg.ForwardNs
	}
	return q.dev.Read(now, addr)
}

// drainTo issues buffered writes oldest-first until occupancy reaches the
// target, returning when the last issued write completes.
func (q *Queue) drainTo(now uint64, target int) uint64 {
	done := now
	for len(q.order) > target {
		line := q.order[0]
		q.order = q.order[1:]
		delete(q.pending, line)
		if t := q.dev.Write(now, line); t > done {
			done = t
		}
	}
	return done
}

// Reset empties the queue in place and zeroes its counters: the power cycle
// that loses the queue's timing state. Nothing durable is lost with it —
// every line reached mem.Physical when it was written.
func (q *Queue) Reset() {
	clear(q.pending)
	q.order = q.order[:0]
	q.Enqueued, q.Merged, q.Forwarded, q.Drains = 0, 0, 0, 0
}

// Flush drains the whole queue (quiesce / power-down).
func (q *Queue) Flush(now uint64) uint64 {
	return q.drainTo(now, 0)
}
