package netsim

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refTimer is the oracle's view of one armed timer in the clock
// cross-check below.
type refTimer struct {
	id   int
	when time.Time
	tm   *Timer
}

// sortRef orders timers as the clock must fire them: by deadline, then
// by arm order (ids are handed out in arm order, as seq is).
func sortRef(ts []refTimer) {
	sort.Slice(ts, func(i, j int) bool {
		if !ts[i].when.Equal(ts[j].when) {
			return ts[i].when.Before(ts[j].when)
		}
		return ts[i].id < ts[j].id
	})
}

// TestClockMatchesReferenceModel drives the clock with randomized
// arm/stop/advance traffic — zero delays, sub-millisecond delays,
// delays of milliseconds, seconds and minutes, and deadlines days out —
// and checks the exact firing sequence against a brute-force sorted
// oracle. The clock must pop in precise (deadline, arm-order) order or
// the simulator's determinism guarantee is void. A checkpoint taken
// after the first round must bring back exactly the timers pending
// then: Restore, called after the drain with a fresh batch pending,
// replays them in (deadline, arm-order) order, the ones stopped or
// fired since included, and none armed after the checkpoint.
func TestClockMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork()

	var fired, expected []int
	pending := make(map[int]refTimer)
	var atCheckpoint []refTimer
	nextID := 0

	delays := func() time.Duration {
		switch rng.Intn(6) {
		case 0:
			return 0 // immediate
		case 1:
			return time.Duration(rng.Intn(1000)) * time.Microsecond
		case 2:
			return time.Duration(rng.Intn(64)) * time.Millisecond
		case 3:
			return time.Duration(rng.Intn(5000)) * time.Millisecond
		case 4:
			return time.Duration(rng.Intn(120)) * time.Minute
		default:
			return 5*time.Hour + time.Duration(rng.Intn(100))*time.Hour
		}
	}

	for round := 0; round < 8; round++ {
		// Arm a batch.
		for i := 0; i < 250; i++ {
			id := nextID
			nextID++
			d := delays()
			when := net.Clock.Now().Add(d)
			tm := net.Clock.AfterFunc(d, func() { fired = append(fired, id) })
			pending[id] = refTimer{id: id, when: when, tm: tm}
		}
		// Stop a random quarter of what is pending.
		for id, rt := range pending {
			if rng.Intn(4) == 0 {
				rt.tm.Stop()
				delete(pending, id)
			}
		}
		// Advance by a random window, from under a second to hours
		// past many pending deadlines at once.
		var window time.Duration
		switch rng.Intn(3) {
		case 0:
			window = time.Duration(rng.Intn(500)) * time.Millisecond
		case 1:
			window = time.Duration(rng.Intn(30)) * time.Minute
		default:
			window = time.Duration(rng.Intn(20)) * time.Hour
		}
		deadline := net.Clock.Now().Add(window)
		var due []refTimer
		for id, rt := range pending {
			if !rt.when.After(deadline) {
				due = append(due, rt)
				delete(pending, id)
			}
		}
		sortRef(due)
		for _, rt := range due {
			expected = append(expected, rt.id)
		}
		net.RunFor(window)
		if round == 0 {
			net.Checkpoint()
			for _, rt := range pending {
				atCheckpoint = append(atCheckpoint, rt)
			}
		}
	}

	// Drain the rest.
	var rest []refTimer
	for _, rt := range pending {
		rest = append(rest, rt)
	}
	sortRef(rest)
	for _, rt := range rest {
		expected = append(expected, rt.id)
	}
	net.Run(0)

	checkOrder := func(what string, fired, expected []int) {
		t.Helper()
		if len(fired) != len(expected) {
			t.Fatalf("%s: fired %d timers, oracle expected %d", what, len(fired), len(expected))
		}
		for i := range fired {
			if fired[i] != expected[i] {
				t.Fatalf("%s: firing order diverges from oracle at index %d: got id %d, want id %d",
					what, i, fired[i], expected[i])
			}
		}
		if len(fired) == 0 {
			t.Fatalf("%s: oracle produced no firings; test is vacuous", what)
		}
	}
	checkOrder("run", fired, expected)

	// Replay from the checkpoint, with a batch armed since still pending.
	sortRef(atCheckpoint)
	expected = expected[:0]
	for _, rt := range atCheckpoint {
		expected = append(expected, rt.id)
	}
	fired = fired[:0]
	for i := 0; i < 250; i++ {
		id := nextID
		nextID++
		net.Clock.AfterFunc(delays(), func() { fired = append(fired, id) })
	}
	net.Restore()
	net.Run(0)
	checkOrder("replay after Restore", fired, expected)
}

// TestClockStopDuringCallback stops a later timer from inside an
// earlier one's callback, removing it from the heap between two pops.
func TestClockStopDuringCallback(t *testing.T) {
	net := NewNetwork()
	var later *Timer
	firedLater := false
	net.Clock.AfterFunc(time.Millisecond, func() { later.Stop() })
	later = net.Clock.AfterFunc(2*time.Millisecond, func() { firedLater = true })
	net.Run(0)
	if firedLater {
		t.Error("timer stopped from a callback still fired")
	}
}

// TestClockRearmFromCallback arms a 1 ms timer from inside the callback
// of a timer 6 h out; each must fire at its exact deadline.
func TestClockRearmFromCallback(t *testing.T) {
	net := NewNetwork()
	var hits []time.Time
	net.Clock.AfterFunc(6*time.Hour, func() {
		hits = append(hits, net.Clock.Now())
		net.Clock.AfterFunc(time.Millisecond, func() {
			hits = append(hits, net.Clock.Now())
		})
	})
	start := net.Clock.Now()
	net.Run(0)
	if len(hits) != 2 {
		t.Fatalf("fired %d timers, want 2", len(hits))
	}
	if got := hits[0].Sub(start); got != 6*time.Hour {
		t.Errorf("first timer fired after %v, want 6h", got)
	}
	if got := hits[1].Sub(start); got != 6*time.Hour+time.Millisecond {
		t.Errorf("chained timer fired after %v, want 6h1ms", got)
	}
}

// broadcastIPv4 builds a switch with n attached NICs and floods one
// broadcast IPv4 frame from the first, returning the fabric and switch.
func broadcastIPv4(n int) (*Network, *Switch, []*collector) {
	net := NewNetwork()
	sw := NewSwitch(net)
	cols := make([]*collector, n)
	var first *NIC
	for i := 0; i < n; i++ {
		cols[i] = &collector{}
		nic := net.NewNIC(cols[i])
		sw.AttachPort(nic)
		if i == 0 {
			first = nic
		}
	}
	first.Transmit(Frame{Dst: Broadcast, EtherType: EtherTypeIPv4, Payload: []byte("discover")})
	net.Run(0)
	return net, sw, cols
}

// TestFloodFanoutSinglePayloadCopy pins the flood fast path's allocation
// behaviour: one broadcast costs exactly two payload copies (sender NIC
// to switch port, switch to the shared fan-out payload) no matter how
// many ports the flood reaches. Before the fan-out path this was
// O(ports) copies per flood — the quadratic term in broadcast-domain
// scaling.
func TestFloodFanoutSinglePayloadCopy(t *testing.T) {
	for _, ports := range []int{4, 80, 200} {
		net, sw, cols := broadcastIPv4(ports)
		st := net.Stats()
		if st.PayloadsServed != 2 {
			t.Errorf("%d ports: flood served %d payload copies, want 2 (O(1) in port count)",
				ports, st.PayloadsServed)
		}
		if st.FanoutEvents != 1 {
			t.Errorf("%d ports: FanoutEvents = %d, want 1", ports, st.FanoutEvents)
		}
		if st.FanoutDeliveries != uint64(ports-1) {
			t.Errorf("%d ports: FanoutDeliveries = %d, want %d",
				ports, st.FanoutDeliveries, ports-1)
		}
		if ss := sw.Stats(); ss.FanoutFloods != 1 {
			t.Errorf("%d ports: FanoutFloods = %d, want 1", ports, ss.FanoutFloods)
		}
		for i, c := range cols[1:] {
			if len(c.frames) != 1 || string(c.frames[0].Payload) != "discover" {
				t.Fatalf("%d ports: receiver %d got %d frames", ports, i+1, len(c.frames))
			}
		}
	}
}

// mutator corrupts the first payload byte on delivery, optionally taking
// a private copy of the payload first.
type mutator struct {
	own  bool
	seen []byte
}

func (m *mutator) HandleFrame(_ *NIC, f Frame) {
	if m.own {
		f.Payload = bytes.Clone(f.Payload)
	}
	m.seen = append(m.seen, f.Payload[0])
	f.Payload[0] = 'X'
}

// TestFanoutPayloadIsShared proves the fan-out payload really is one
// buffer: a receiver that mutates in place (violating the read-only
// payload contract) is visible to the next receiver in port order. This is the
// negative control for the copy-on-write test below.
func TestFanoutPayloadIsShared(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	src := net.NewNIC(nil)
	bad := &mutator{own: false}
	after := &collector{}
	sw.AttachPort(src)
	sw.AttachPort(net.NewNIC(bad))
	sw.AttachPort(net.NewNIC(after))

	src.Transmit(Frame{Dst: Broadcast, EtherType: EtherTypeIPv4, Payload: []byte("orig")})
	net.Run(0)

	if len(after.frames) != 1 {
		t.Fatalf("late receiver got %d frames, want 1", len(after.frames))
	}
	if got := string(after.frames[0].Payload); got != "Xrig" {
		t.Errorf("in-place mutation not visible to co-receiver: got %q, want %q (shared buffer)", got, "Xrig")
	}
}

// TestFanoutCopyOnWriteIsolation is the positive control: a receiver
// that copies the payload before writing leaves every other receiver's
// view of the shared payload untouched.
func TestFanoutCopyOnWriteIsolation(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	src := net.NewNIC(nil)
	cow := &mutator{own: true}
	after := &collector{}
	sw.AttachPort(src)
	sw.AttachPort(net.NewNIC(cow))
	sw.AttachPort(net.NewNIC(after))

	src.Transmit(Frame{Dst: Broadcast, EtherType: EtherTypeIPv4, Payload: []byte("orig")})
	net.Run(0)

	if got := string(after.frames[0].Payload); got != "orig" {
		t.Errorf("copying did not isolate mutation: co-receiver saw %q, want %q", got, "orig")
	}
	if len(cow.seen) != 1 || cow.seen[0] != 'o' {
		t.Errorf("mutating receiver saw %q before writing, want 'o'", cow.seen)
	}
}

// TestSwitchLearnsOnlyAfterFiltersPass is the regression test for the
// learn-before-filter bug: a frame dropped by a snooping filter must not
// poison the MAC table. A rogue port spoofing the victim's source MAC
// would otherwise capture the victim's inbound traffic even though its
// own frames never pass the filter.
func TestSwitchLearnsOnlyAfterFiltersPass(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	var attacker, victim collector
	a := net.NewNIC(&attacker)
	v := net.NewNIC(&victim)
	c := net.NewNIC(&collector{})
	pa := sw.AttachPort(a)
	sw.AttachPort(v)
	sw.AttachPort(c)

	sw.AddFilter(func(port int, f Frame) bool { return port != pa })

	// Attacker spoofs the victim's source MAC; the filter drops it.
	a.Transmit(Frame{Src: v.MAC(), Dst: c.MAC(), EtherType: EtherTypeIPv4, Payload: []byte("spoof")})
	net.Run(0)

	// Traffic toward the victim must still reach the victim: the spoofed
	// (and filtered) frame may not have claimed its MAC table entry.
	c.Transmit(Frame{Dst: v.MAC(), EtherType: EtherTypeIPv4, Payload: []byte("to-victim")})
	net.Run(0)

	if len(victim.frames) != 1 {
		t.Fatalf("victim got %d frames, want 1 — filtered frame poisoned the MAC table", len(victim.frames))
	}
	if st := sw.Stats(); st.Filtered != 1 {
		t.Errorf("Filtered = %d, want 1", st.Filtered)
	}
}

// TestSnoopingSuppressesEtherType checks that a broadcast of an
// EtherType a restricted port never declared interest in is suppressed
// at the switch (the paper's IPv6-only clients should not see DHCPv4
// DISCOVER broadcasts), while unrestricted ports keep promiscuous
// delivery.
func TestSnoopingSuppressesEtherType(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	var v6only, dual, router collector
	src := net.NewNIC(nil)

	v6 := net.NewNIC(&v6only)
	v6.RestrictFlooding()
	v6.AddEtherTypeInterest(EtherTypeIPv6)

	d := net.NewNIC(&dual)
	d.RestrictFlooding()
	d.AddEtherTypeInterest(EtherTypeIPv4)
	d.AddEtherTypeInterest(EtherTypeIPv6)

	r := net.NewNIC(&router) // unmanaged: receives everything

	sw.AttachPort(src)
	sw.AttachPort(v6)
	sw.AttachPort(d)
	sw.AttachPort(r)

	src.Transmit(Frame{Dst: Broadcast, EtherType: EtherTypeIPv4, Payload: []byte("dhcp-discover")})
	net.Run(0)

	if len(v6only.frames) != 0 {
		t.Errorf("IPv6-only port received an IPv4 broadcast")
	}
	if len(dual.frames) != 1 || len(router.frames) != 1 {
		t.Errorf("dual=%d router=%d frames, want 1/1", len(dual.frames), len(router.frames))
	}
	st := sw.Stats()
	if st.SuppressedEtherType != 1 {
		t.Errorf("SuppressedEtherType = %d, want 1", st.SuppressedEtherType)
	}
	if st.FanoutFloods != 1 {
		t.Errorf("FanoutFloods = %d, want 1 (suppression must not force the slow path)", st.FanoutFloods)
	}
}

// TestSnoopingGroupMembership checks solicited-node-style group
// filtering: an IPv6 multicast MAC flood reaches only joined members
// among restricted ports, membership is refcounted, and interest
// declared before AttachPort survives cabling.
func TestSnoopingGroupMembership(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	group := MAC{0x33, 0x33, 0xff, 0x01, 0x02, 0x03}
	var member, other collector
	src := net.NewNIC(nil)

	m := net.NewNIC(&member)
	m.RestrictFlooding()
	m.AddEtherTypeInterest(EtherTypeIPv6)
	m.JoinGroup(group) // declared before attach: must sync at AttachPort
	m.JoinGroup(group) // second address mapping to the same group MAC

	o := net.NewNIC(&other)
	o.RestrictFlooding()
	o.AddEtherTypeInterest(EtherTypeIPv6)

	sw.AttachPort(src)
	sw.AttachPort(m)
	sw.AttachPort(o)

	send := func() {
		src.Transmit(Frame{Dst: group, EtherType: EtherTypeIPv6, Payload: []byte("ns")})
		net.Run(0)
	}

	send()
	if len(member.frames) != 1 || len(other.frames) != 0 {
		t.Fatalf("member=%d other=%d frames, want 1/0", len(member.frames), len(other.frames))
	}
	if st := sw.Stats(); st.SuppressedGroup != 1 {
		t.Errorf("SuppressedGroup = %d, want 1", st.SuppressedGroup)
	}

	// Refcounting: one leave keeps membership, the second drops it.
	m.LeaveGroup(group)
	send()
	if len(member.frames) != 2 {
		t.Fatalf("member lost group after 1 of 2 leaves: %d frames, want 2", len(member.frames))
	}
	m.LeaveGroup(group)
	send()
	if len(member.frames) != 2 {
		t.Errorf("member still in group after balanced leaves: %d frames, want 2", len(member.frames))
	}
}

// TestUnknownUnicastSuppression checks that unknown-destination unicast
// floods skip restricted ports whose peer is not the addressee — except
// the addressee itself, and except ARP (snooped opportunistically).
func TestUnknownUnicastSuppression(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	var target, bystander collector
	src := net.NewNIC(nil)

	tgt := net.NewNIC(&target)
	tgt.RestrictFlooding()

	by := net.NewNIC(&bystander)
	by.RestrictFlooding()

	sw.AttachPort(src)
	sw.AttachPort(tgt)
	sw.AttachPort(by)

	// Unknown unicast addressed to the restricted target: the target
	// must still receive it (its rx path depends on it); the bystander
	// would drop it at dst-MAC demux, so the switch suppresses it.
	src.Transmit(Frame{Dst: tgt.MAC(), EtherType: EtherTypeIPv4, Payload: []byte("syn")})
	net.Run(0)
	if len(target.frames) != 1 {
		t.Fatalf("addressee got %d frames, want 1", len(target.frames))
	}
	if len(bystander.frames) != 0 {
		t.Errorf("bystander received an unknown-unicast flood addressed elsewhere")
	}
	if st := sw.Stats(); st.SuppressedUnicast != 1 {
		t.Errorf("SuppressedUnicast = %d, want 1", st.SuppressedUnicast)
	}
}

// TestInjectAllFanout checks that switch-originated multicast injections
// (Router Advertisements from the managed switch) ride the shared
// fan-out path.
func TestInjectAllFanout(t *testing.T) {
	net := NewNetwork()
	sw := NewSwitch(net)
	var a, b collector
	sw.AttachPort(net.NewNIC(&a))
	sw.AttachPort(net.NewNIC(&b))

	src := net.AllocMAC()
	sw.InjectAll(Frame{Src: src, Dst: Broadcast, EtherType: EtherTypeIPv6, Payload: []byte("ra")})
	net.Run(0)
	if st := sw.Stats(); st.FanoutFloods != 1 {
		t.Errorf("sourced multicast InjectAll: FanoutFloods = %d, want 1", st.FanoutFloods)
	}
	if len(a.frames) != 1 || len(b.frames) != 1 || a.frames[0].Src != src {
		t.Fatalf("fan-out injection misdelivered: a=%d b=%d", len(a.frames), len(b.frames))
	}
}
