package hoststack

// This file is the host memory diet: million-client worlds cannot afford
// a full Host (nine maps, a NIC, an event log — kilobytes) per client
// that has not acted yet. Instead, a registered client is one row in a
// struct-of-arrays Table holding only what a re-materialized client
// resumes from: its protocol sequence counters and whether it has ever
// been active. The full Host is materialized lazily when the client
// first acts and parked (counters saved back to its row, timers
// stopped, port released) when it goes idle again.

// SeqState is the per-host protocol sequence state (DHCP transaction
// ID, DNS message ID, ICMP echo ID) that must survive a park/rewake
// cycle so a re-materialized host keeps issuing fresh identifiers.
type SeqState struct {
	DHCPXID uint32
	DNSID   uint16
	PingID  uint16
}

// Table is the struct-of-arrays store for registered clients. Each row
// costs 9 bytes (8 of sequence counters, one ever-active flag) plus a
// share of the slice headers; one million registered clients fit in
// about 9 MB. The Table holds no names or profiles: the caller supplies
// both when a row materializes, so they cost nothing until then.
type Table struct {
	seq []SeqState
	// everActive marks rows materialized at least once, whose saved
	// SeqState is meaningful.
	everActive []bool
}

// NewTable returns a Table pre-sized for n rows.
func NewTable(n int) *Table {
	return &Table{
		seq:        make([]SeqState, 0, n),
		everActive: make([]bool, 0, n),
	}
}

// Add registers a client row and returns its index.
func (t *Table) Add() int {
	t.seq = append(t.seq, SeqState{})
	t.everActive = append(t.everActive, false)
	return len(t.seq) - 1
}

// Len returns the number of registered rows.
func (t *Table) Len() int { return len(t.seq) }

// MarkMaterialized records that row i has been active and seeds h with
// the row's saved sequence counters so identifier streams continue
// across park cycles.
func (t *Table) MarkMaterialized(i int, h *Host) {
	if t.everActive[i] {
		h.SetSequenceState(t.seq[i])
	}
	t.everActive[i] = true
}

// Park saves h's sequence counters back into row i. The caller remains
// responsible for detaching the host's port.
func (t *Table) Park(i int, h *Host) {
	t.seq[i] = h.SequenceState()
}

// SequenceState snapshots the host's protocol identifier counters.
func (h *Host) SequenceState() SeqState {
	return SeqState{DHCPXID: h.dhcpXIDSeq, DNSID: h.dnsIDSeq, PingID: h.pingIDSeq}
}

// SetSequenceState restores previously saved identifier counters.
func (h *Host) SetSequenceState(s SeqState) {
	h.dhcpXIDSeq, h.dnsIDSeq, h.pingIDSeq = s.DHCPXID, s.DNSID, s.PingID
}

// StopTimers cancels the host's persistent timers (DHCP retransmit and
// renew — the only ones a quiescent host keeps armed) so a parked host
// leaves nothing in the event loop.
func (h *Host) StopTimers() {
	if h.dhcp.retryTimer != nil {
		h.dhcp.retryTimer.Stop()
		h.dhcp.retryTimer = nil
	}
	if h.dhcp.renewTimer != nil {
		h.dhcp.renewTimer.Stop()
		h.dhcp.renewTimer = nil
	}
}
