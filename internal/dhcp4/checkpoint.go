package dhcp4

import "repro/internal/netsim"

// Checkpoint saves the server's state — leases, the in-use set, the
// global and per-domain allocation cursors, and the counters — for
// Restore. It is part of the testbed world-reuse lifecycle. Pool
// configuration and the domain lookup are configuration and are not
// saved.
func (s *Server) Checkpoint() {
	s.saved = new(serverState)
	s.serverState.copyInto(s.saved)
}

// Restore rewinds the server to its checkpoint.
func (s *Server) Restore() {
	s.saved.copyInto(&s.serverState)
}

func (s *serverState) copyInto(dst *serverState) {
	live := *dst
	*dst = *s
	dst.leases = netsim.RefillMap(live.leases, s.leases)
	dst.inUse = netsim.RefillMap(live.inUse, s.inUse)
	dst.domainCursors = append(live.domainCursors[:0], s.domainCursors...)
}
