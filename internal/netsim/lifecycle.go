package netsim

import "time"

// This file gives the fabric an explicit lifecycle. A Network is born
// running (NewNetwork), can be shut down (Stop), rewound to its
// checkpoint (Checkpoint and Restore, in checkpoint.go), or asked to
// settle in-flight work without following self-rearming beacons forever
// (Drain). The scenario engine leans on Stop to tear worlds down after a
// sharded run, and the testbed Checkpoint/Reset lifecycle on Checkpoint
// and Restore to reuse them.

// Stop shuts the fabric down: every pending event and timer is
// discarded, and any further scheduling — frame transmission or timer
// arming — becomes a silent no-op. Devices stay attached and their
// state is preserved for inspection, but the world cannot make progress
// again until Restore. Stop is idempotent.
func (n *Network) Stop() {
	n.stopped = true
	n.dropPending()
	n.Clock.purge()
}

// Stopped reports whether the fabric has been shut down with Stop.
func (n *Network) Stopped() bool { return n.stopped }

// Drain advances the fabric until it goes idle: it processes events and
// timers in order, stopping as soon as the next pending occurrence lies
// more than quiet beyond the current virtual time. With quiet shorter
// than the periodic beacon intervals (RAs re-arm every 10s) this settles
// all in-flight conversations and then returns, instead of chasing
// self-rearming timers forever like Run would. It returns the number of
// events processed.
func (n *Network) Drain(quiet time.Duration) int {
	ran := 0
	for ran < 1<<22 {
		if !n.step(n.Clock.Now().Add(quiet), true) {
			break
		}
		ran++
	}
	return ran
}
