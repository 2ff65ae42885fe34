package netsim

import (
	"testing"
	"time"
)

func TestStopDiscardsPendingAndRefusesNewWork(t *testing.T) {
	n := NewNetwork()
	fired := false
	n.Clock.AfterFunc(time.Second, func() { fired = true })

	n.Stop()
	if !n.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	n.RunFor(10 * time.Second)
	if fired {
		t.Error("timer armed before Stop fired anyway")
	}

	// New work after Stop is a silent no-op.
	n.Clock.AfterFunc(time.Millisecond, func() { fired = true })
	rx := n.NewNIC(FrameHandlerFunc(func(*NIC, Frame) { fired = true }))
	n.scheduleFrame(time.Millisecond, rx, Frame{})
	if got := n.Run(0); got != 0 {
		t.Errorf("Run processed %d events on a stopped fabric", got)
	}
	if fired {
		t.Error("work scheduled after Stop ran")
	}

	n.Stop() // idempotent
}

func TestResetRewindsToPristineState(t *testing.T) {
	n := NewNetwork()
	epoch := n.Clock.Now()
	n.Checkpoint()

	n.scheduleFrame(time.Millisecond, n.NewNIC(nil), Frame{})
	n.RunFor(5 * time.Second)
	if n.Clock.Now().Equal(epoch) {
		t.Fatal("clock did not advance before Reset")
	}
	n.Stop()

	n.Restore()
	if n.Stopped() {
		t.Error("Reset left the fabric stopped")
	}
	if !n.Clock.Now().Equal(epoch) {
		t.Errorf("clock after Reset = %v, want epoch %v", n.Clock.Now(), epoch)
	}
	if s := n.Stats(); len(n.queue) != 0 || s.FramesDelivered != 0 || s.QueuePeak != 0 {
		t.Errorf("Stats after Reset not pristine: %d queued, %+v", len(n.queue), s)
	}

	// The fabric accepts and runs work again.
	ran := false
	n.Clock.AfterFunc(time.Millisecond, func() { ran = true })
	n.RunFor(10 * time.Millisecond)
	if !ran {
		t.Error("timer after Reset did not fire")
	}
}

func TestDrainSettlesWithoutChasingBeacons(t *testing.T) {
	n := NewNetwork()

	// A short self-rescheduling chain (in-flight work)...
	chain := 0
	var step func()
	step = func() {
		chain++
		if chain < 5 {
			n.Clock.AfterFunc(time.Millisecond, step)
		}
	}
	n.Clock.AfterFunc(time.Millisecond, step)

	// ...and a periodic beacon that re-arms forever.
	beacons := 0
	var beacon func()
	beacon = func() {
		beacons++
		n.Clock.AfterFunc(10*time.Second, beacon)
	}
	n.Clock.AfterFunc(10*time.Second, beacon)

	ran := n.Drain(time.Second)
	if chain != 5 {
		t.Errorf("chain ran %d/5 steps", chain)
	}
	if beacons != 0 {
		t.Errorf("Drain followed %d beacon re-arms; want 0", beacons)
	}
	if ran != 5 {
		t.Errorf("Drain processed %d events, want 5", ran)
	}
}
