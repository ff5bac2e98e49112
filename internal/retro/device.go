package retro

import (
	"sync/atomic"
	"time"

	"rql/internal/obs"
	"rql/internal/storage"
)

// The device model is the software analogue of an NVMe / SATA NCQ
// command queue: a demand miss is one device command, serviced inline
// on the goroutine that missed, and up to DeviceQueueDepth commands are
// in service at once — later callers wait for a slot in arrival order.
// Each command pays the configured SimulatedReadLatency exactly once
// when SleepOnRead is set, so K outstanding reads cost ~1 service
// latency at depth K and K of them at depth 1.
//
// Accounting stays device-independent: PagelogReads counts *logical*
// cache-missing reads, so the paper's per-read counter series is
// identical at any queue depth. The device-level view lives in its own
// counters (DeviceReads, OverlappedReads, DeviceBusyNS).

// DefaultQueueDepth is the device's default concurrency. Eight matches
// the queue depth at which commodity SSDs saturate on 4 KiB random
// reads; depth 1 degenerates to the strictly serial device of the
// paper-replication mode.
const DefaultQueueDepth = 8

type device struct {
	// pl is the current Pagelog. Atomic because Compact swaps in the
	// rewritten log; the swap happens with zero open readers, so no
	// command is in service across it.
	pl      atomic.Pointer[pagelog]
	latency time.Duration
	sleep   bool
	stats   *Stats

	// slots is the command queue, DeviceQueueDepth deep: a command holds
	// one slot while in service. Go wakes blocked senders in FIFO order,
	// which is what the fairness test pins down.
	slots    chan struct{}
	inFlight atomic.Int64
}

func newDevice(pl *pagelog, depth int, latency time.Duration, sleep bool, stats *Stats) *device {
	if depth < 1 {
		depth = DefaultQueueDepth
	}
	d := &device{
		latency: latency,
		sleep:   sleep,
		stats:   stats,
		slots:   make(chan struct{}, depth),
	}
	d.pl.Store(pl)
	return d
}

// read services one page read as one device command, waiting in arrival
// order for a free slot. sp, when non-nil, parents a "device.read" span
// covering the wait plus the service interval. The returned queue wait
// is how long the command waited for its slot: contention behind other
// commands, which the issuer accounts separately from billed I/O.
func (d *device) read(off int64, sp *obs.Span) (*storage.PageData, time.Duration, error) {
	submitted := time.Now()
	d.slots <- struct{}{}
	defer func() { <-d.slots }()
	if d.inFlight.Add(1) > 1 {
		d.stats.OverlappedReads.Add(1)
	}
	start := time.Now()
	queueWait := start.Sub(submitted)
	data := new(storage.PageData)
	physBytes, blockHits, err := d.pl.Load().read(off, data)
	if err == nil && d.sleep {
		// One command, one service latency. The command's real compute
		// (file read, block inflate, page copy) overlaps the modeled
		// latency the way decode overlaps DMA on a real device, so
		// service time is max(modeled, actual), not their sum: sleep
		// only the remainder.
		if elapsed := time.Since(start); d.latency > elapsed {
			time.Sleep(d.latency - elapsed)
		}
	}
	d.inFlight.Add(-1)
	d.stats.DeviceReads.Add(1)
	d.stats.DeviceBytesRead.Add(uint64(physBytes))
	if blockHits > 0 {
		d.stats.SegBlockHits.Add(uint64(blockHits))
	}
	d.stats.DeviceBusyNS.Add(uint64(time.Since(start)))
	if sp != nil {
		obs.Record(sp, "device.read", submitted, time.Since(submitted),
			obs.Attr{Key: "off", Int: off},
			obs.Attr{Key: "queue_wait_us", Int: queueWait.Microseconds()})
	}
	if err != nil {
		return nil, queueWait, err
	}
	return data, queueWait, nil
}
